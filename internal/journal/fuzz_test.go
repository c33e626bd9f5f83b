package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay: ReadFile never panics on arbitrary bytes, and every valid
// CRC frame is recovered whatever junk lines surround it.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""), uint8(0))
	f.Add([]byte("junk\n\n~zz\n"), uint8(3))
	f.Add([]byte(`{"k":"admit","id":1,"t":1}`+"\n~0000000 {}\n"), uint8(2))
	f.Fuzz(func(t *testing.T, junk []byte, n uint8) {
		dir := t.TempDir()
		raw := filepath.Join(dir, "raw.journal")
		if err := os.WriteFile(raw, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		ReadFile(raw) // an error is an answer; a panic is not

		// Planted admit records, one after each junk line, under IDs
		// far past any the junk's own frames could plausibly name.
		const base = 1 << 40
		planted := int(n%8) + 1
		lines := bytes.Split(junk, []byte{'\n'})
		var buf []byte
		for i := 0; i < planted || i < len(lines); i++ {
			if i < len(lines) {
				buf = append(append(buf, lines[i]...), '\n')
			}
			if i < planted {
				b, err := json.Marshal(record{K: "admit", ID: base + i, T: 1, Tenant: "t"})
				if err != nil {
					t.Fatal(err)
				}
				buf = appendFrame(buf, b)
			}
		}
		mixed := filepath.Join(dir, "mixed.journal")
		if err := os.WriteFile(mixed, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadFile(mixed)
		if err != nil {
			t.Fatalf("ReadFile with junk lines: %v", err)
		}
		found := map[int]bool{}
		for _, lj := range st.Live {
			found[lj.ID] = true
		}
		for _, dj := range st.Done {
			found[dj.ID] = true
		}
		for i := 0; i < planted; i++ {
			if !found[base+i] {
				t.Fatalf("valid frame for job %d lost among junk lines", base+i)
			}
		}
	})
}
