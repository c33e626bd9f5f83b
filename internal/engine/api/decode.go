package api

import (
	"bytes"
	"strconv"

	"tetrium/internal/workload"
)

// decodeJobSpec is the submit route's one-pass JobSpec decoder. It
// accepts only what it is certain encoding/json decodes to the same
// value, and otherwise declines (false, spec left half-filled) so the
// caller decodes the same bytes with encoding/json, which stays the
// definition of the format. The grammar it accepts:
//
//   - one top-level object, then JSON whitespace only;
//   - the schema's keys in their exact spelling, in any order, each at
//     most once per object (encoding/json also folds case, ignores
//     unknown keys and lets a duplicate overwrite);
//   - strings of unescaped ASCII (no backslash, control or ≥ 0x80 byte);
//   - numbers of the JSON grammar that strconv parses without error, an
//     int field taking no fraction or exponent;
//   - a stage kind of "map" or "reduce";
//   - no null, true or false anywhere.
//
// Everything decoded is copied out of b: no string or slice of the
// result refers to it, so b may be reused as soon as this returns.
func decodeJobSpec(b []byte, spec *JobSpec) bool {
	d := jobDecoder{b: b}
	d.open('{')
	var seen uint
	for more := !d.close('}'); more; more = d.more('}') {
		var bit uint
		switch string(d.key()) {
		case "name":
			bit, spec.Name = 1, d.str()
		case "tenant":
			bit, spec.Tenant = 2, d.str()
		case "stages":
			bit, spec.Stages = 4, d.stages()
		}
		d.once(&seen, bit)
	}
	d.space()
	return !d.failed && d.i == len(d.b)
}

// jobDecoder is a cursor over one request body. The first step that
// meets something outside the accepted grammar sets failed; every later
// step is then a no-op, so callers check once, at the end of a member.
type jobDecoder struct {
	b      []byte
	i      int
	failed bool
}

// once fails on a key the schema does not have (bit 0) or a key's
// second occurrence in one object.
func (d *jobDecoder) once(seen *uint, bit uint) {
	if bit == 0 || *seen&bit != 0 {
		d.failed = true
	}
	*seen |= bit
}

func (d *jobDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (d *jobDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// open consumes, after optional whitespace, the byte c that must start
// a value or follow a key.
func (d *jobDecoder) open(c byte) {
	d.space()
	if !d.next(c) {
		d.failed = true
	}
}

// close reports whether the object or array just opened ends at once.
func (d *jobDecoder) close(c byte) bool {
	d.space()
	return d.failed || d.next(c)
}

// more is called after a member or element: a comma means another
// follows, the closing bracket c ends the value, anything else fails.
func (d *jobDecoder) more(c byte) bool {
	if d.close(c) {
		return false
	}
	d.open(',')
	return !d.failed
}

// key reads an object key and its colon.
func (d *jobDecoder) key() []byte {
	k := d.rawStr()
	d.open(':')
	return k
}

// rawStr reads a string of unescaped ASCII and returns its contents as
// a view into b.
func (d *jobDecoder) rawStr() []byte {
	d.open('"')
	if d.failed {
		return nil
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c == '\\' || c < 0x20 || c >= 0x80:
			d.failed = true
			return nil
		}
	}
	d.failed = true // truncated
	return nil
}

// str reads a string value into fresh memory.
func (d *jobDecoder) str() string { return string(d.rawStr()) }

func (d *jobDecoder) digits() {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	if d.i == start {
		d.failed = true
	}
}

// number returns the bytes of one JSON-grammar number; integral reports
// that it has neither fraction nor exponent.
func (d *jobDecoder) number() (num []byte, integral bool) {
	d.space()
	start := d.i
	d.next('-')
	if !d.next('0') { // a leading zero stands alone: "01" fails at the delimiter
		d.digits()
	}
	integral = true
	if d.next('.') {
		integral = false
		d.digits()
	}
	if d.next('e') || d.next('E') {
		integral = false
		if !d.next('+') {
			d.next('-')
		}
		d.digits()
	}
	return d.b[start:d.i], integral
}

func (d *jobDecoder) float() float64 {
	num, _ := d.number()
	if d.failed {
		return 0
	}
	// An out-of-range number is an error to encoding/json and to
	// ParseFloat alike.
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.failed = true
	}
	return f
}

func (d *jobDecoder) int() int {
	num, integral := d.number()
	if d.failed || !integral { // encoding/json refuses 1.0 and 1e2 for an int
		d.failed = true
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		d.failed = true
	}
	return int(n)
}

// count sizes an array whose '[' was just consumed: the occurrences of
// sep up to the ']' that closes it, arrays nested in its elements (a
// task's replicas) stepped over. It is a capacity, not a promise — the
// elements are still appended one by one — and is bounded by the
// array's length.
func (d *jobDecoder) count(sep byte) int {
	if d.failed {
		return 0
	}
	rest := d.b[d.i:]
	end, open := 0, 0
	for {
		j := bytes.IndexByte(rest[end:], ']')
		if j < 0 {
			end = len(rest)
			break
		}
		open += bytes.Count(rest[end:end+j], []byte{'['})
		end += j
		if open == 0 {
			break
		}
		open--
		end++
	}
	return bytes.Count(rest[:end], []byte{sep})
}

func (d *jobDecoder) stages() []workload.Stage {
	d.open('[')
	// Stages nest arrays, so they are gathered on the stack (most jobs
	// have a handful) and copied out at their exact length.
	var few [8]workload.Stage
	stages := few[:0]
	for more := !d.close(']'); more; more = d.more(']') {
		stages = append(stages, d.stage())
	}
	return append(make([]workload.Stage, 0, len(stages)), stages...)
}

func (d *jobDecoder) stage() (st workload.Stage) {
	d.open('{')
	var seen uint
	for more := !d.close('}'); more; more = d.more('}') {
		var bit uint
		switch string(d.key()) {
		case "kind":
			bit = 1
			if st.Kind.UnmarshalText(d.rawStr()) != nil {
				d.failed = true // encoding/json's error names the kind
			}
		case "deps":
			bit, st.Deps = 2, d.ints()
		case "output_ratio":
			bit, st.OutputRatio = 4, d.float()
		case "est_compute":
			bit, st.EstCompute = 8, d.float()
		case "tasks":
			bit, st.Tasks = 16, d.tasks()
		}
		d.once(&seen, bit)
	}
	return st
}

// ints reads an array of ints: a stage's deps or a task's replicas.
func (d *jobDecoder) ints() []int {
	d.open('[')
	v := make([]int, 0, d.count(',')+1)
	for more := !d.close(']'); more; more = d.more(']') {
		v = append(v, d.int())
	}
	return v
}

func (d *jobDecoder) tasks() []workload.TaskSpec {
	d.open('[')
	tasks := make([]workload.TaskSpec, 0, d.count('{'))
	for more := !d.close(']'); more; more = d.more(']') {
		tasks = append(tasks, d.task())
	}
	return tasks
}

func (d *jobDecoder) task() (t workload.TaskSpec) {
	d.open('{')
	var seen uint
	for more := !d.close('}'); more; more = d.more('}') {
		var bit uint
		switch string(d.key()) {
		case "src":
			bit, t.Src = 1, d.int()
		case "replicas":
			bit, t.Replicas = 2, d.ints()
		case "input":
			bit, t.Input = 4, d.float()
		case "compute":
			bit, t.Compute = 8, d.float()
		}
		d.once(&seen, bit)
	}
	return t
}
