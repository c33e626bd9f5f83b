package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tetrium/internal/engine"
	"tetrium/internal/workload"
)

// canonicalBodies are submit bodies as every client of this repo writes
// them (json.Marshal of FromWorkload): the three trace kinds on the
// 8-site and 50-site presets, and a BigData trace whose partitions have
// two replicas. maxTasks > 0 keeps only that many tasks of each stage:
// the fuzzer mutates and minimizes a 1 KB seed far better than a 90 KB
// one.
func canonicalBodies(tb testing.TB, maxTasks int) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, sites := range []int{8, 50} {
		replicated := workload.BigData(sites, 2, 3)
		replicated.ReplicaCount = 2
		for _, cfg := range []workload.GenConfig{
			workload.TPCDS(sites, 2, 1), workload.BigData(sites, 2, 1), workload.ProdTrace(sites, 2, 1), replicated,
		} {
			for _, j := range workload.Generate(cfg) {
				j.Tenant = fmt.Sprintf("tenant-%d", sites)
				for _, st := range j.Stages {
					if maxTasks > 0 && len(st.Tasks) > maxTasks {
						st.Tasks = st.Tasks[len(st.Tasks)-maxTasks:]
					}
				}
				out = append(out, marshalJob(tb, j))
			}
		}
	}
	return out
}

func marshalJob(tb testing.TB, j *workload.Job) []byte {
	tb.Helper()
	body, err := json.Marshal(FromWorkload(j))
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	return body
}

// nonCanonical holds one body per thing decodeJobSpec must leave to
// encoding/json, and the near misses of the number grammar.
var nonCanonical = map[string]string{
	"escape":             `{"name":"a\u0041","stages":[]}`,
	"escaped quote":      `{"name":"a\"b","stages":[]}`,
	"non-ascii":          `{"name":"jöb","stages":[]}`,
	"control byte":       "{\"name\":\"a\x01b\",\"stages\":[]}",
	"unknown key":        `{"name":"x","priority":3,"stages":[]}`,
	"other case of key":  `{"Name":"x","stages":[]}`,
	"duplicate key":      `{"name":"x","name":"y","stages":[]}`,
	"duplicate in task":  `{"stages":[{"kind":"map","tasks":[{"src":0,"src":1,"input":1,"compute":1}]}]}`,
	"null string":        `{"name":null,"stages":[]}`,
	"null stages":        `{"name":"x","stages":null}`,
	"null tasks":         `{"stages":[{"kind":"map","tasks":null}]}`,
	"null stage":         `{"name":"x","stages":[null]}`,
	"null replicas":      `{"stages":[{"kind":"map","tasks":[{"src":0,"replicas":null,"input":1,"compute":1}]}]}`,
	"unknown kind":       `{"name":"x","stages":[{"kind":"shuffle","tasks":[{"src":0,"input":1,"compute":1}]}]}`,
	"no kind":            `{"name":"x","stages":[{"tasks":[{"src":0,"input":1,"compute":1}]}]}`,
	"null number":        `{"stages":[{"kind":"map","output_ratio":null,"tasks":[]}]}`,
	"bool":               `{"name":true}`,
	"1.0 for an int":     `{"stages":[{"kind":"map","tasks":[{"src":1.0,"input":1,"compute":1}]}]}`,
	"1e0 for an int":     `{"stages":[{"kind":"reduce","deps":[1e0],"tasks":[]}]}`,
	"int out of range":   `{"stages":[{"kind":"map","tasks":[{"src":9223372036854775808,"input":1,"compute":1}]}]}`,
	"float out of range": `{"stages":[{"kind":"map","output_ratio":1e999,"tasks":[]}]}`,
	"minus zero":         `{"stages":[{"kind":"map","output_ratio":-0,"tasks":[{"src":-0,"input":-0.0,"compute":0e0}]}]}`,
	"leading zero":       `{"stages":[{"kind":"map","output_ratio":01,"tasks":[]}]}`,
	"bare minus":         `{"stages":[{"kind":"map","output_ratio":-,"tasks":[]}]}`,
	"bare fraction":      `{"stages":[{"kind":"map","output_ratio":1.,"tasks":[]}]}`,
	"bare exponent":      `{"stages":[{"kind":"map","output_ratio":1e+,"tasks":[]}]}`,
	"plus sign":          `{"stages":[{"kind":"map","output_ratio":+1,"tasks":[]}]}`,
	"exponents":          `{"stages":[{"kind":"map","output_ratio":1E-2,"est_compute":2.5e+3,"tasks":[{"src":0,"input":1e9,"compute":1e-400}]}]}`,
	"trailing garbage":   `{"name":"x","stages":[]} trailing`,
	"trailing value":     `{"name":"x","stages":[]}{"name":"y"}`,
	"trailing space":     "{\"name\":\"x\",\"stages\":[]} \t\r\n",
	"whitespace":         " {\n\t\"name\" : \"x\" ,\r\n \"stages\" : [ { \"kind\" : \"map\" , \"tasks\" : [ { \"src\" : 1 } , { } ] } ] } ",
	"empty object":       `{}`,
	"empty arrays":       `{"name":"","tenant":"","stages":[{"kind":"reduce","deps":[],"tasks":[]}]}`,
	"trailing comma":     `{"name":"x","stages":[],}`,
	"comma in array":     `{"stages":[{"kind":"reduce","deps":[0,],"tasks":[]}]}`,
	"missing colon":      `{"name" "x"}`,
	"array at top":       `[{"name":"x"}]`,
	"string at top":      `"x"`,
	"nothing":            ``,
	"nested too deep":    `{"stages":[{"kind":"map","deps":[[0]],"tasks":[]}]}`,
	"string for number":  `{"stages":[{"kind":"map","output_ratio":"1","tasks":[]}]}`,
	"nine stages":        `{"stages":[` + strings.Repeat(`{"kind":"map","tasks":[{"src":0,"input":1,"compute":1}]},`, 8) + `{"kind":"reduce","deps":[0,7],"tasks":[{}]}]}`,
	"negative ratio":     `{"name":"x","stages":[{"kind":"map","output_ratio":-3,"tasks":[{"src":0,"input":1,"compute":1}]}]}`,
	"overflowing totals": `{"name":"x","stages":[{"kind":"map","output_ratio":1e300,"est_compute":1e300,"tasks":[{"src":0,"input":1e300,"compute":1}]}]}`,
}

// capture is the Service behind the differential handlers: it validates
// as the engine's Submit does and keeps the job it was handed.
type capture struct {
	Service
	job *workload.Job
}

func (c *capture) SubmitIdem(job *workload.Job, _ string) (engine.JobStatus, bool, error) {
	if err := job.Validate(); err != nil {
		return engine.JobStatus{}, false, err
	}
	c.job = job
	return engine.JobStatus{Name: job.Name}, false, nil
}

func (c *capture) Mount(*http.ServeMux) {}

// submit posts body to the real handler and returns the status and the
// job that reached the service.
func submit(body io.Reader) (int, *workload.Job) {
	svc := &capture{}
	rec := httptest.NewRecorder()
	Handler(svc).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", body))
	return rec.Code, svc.job
}

// submitJSONOnly is the submit route as it was before decodeJobSpec:
// encoding/json straight off the bounded body.
func submitJSONOnly(body io.Reader) (int, *workload.Job) {
	svc := &capture{}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/jobs", body)
	var spec JobSpec
	if !decodeBody(rec, r, &spec) {
		return rec.Code, nil
	}
	job, err := spec.ToWorkload()
	if err == nil {
		_, _, err = svc.SubmitIdem(job, "")
	}
	if err != nil {
		return http.StatusBadRequest, nil
	}
	return http.StatusAccepted, svc.job
}

// checkDecode asserts the two properties the decoder is allowed to
// exist under: what it accepts, encoding/json accepts as the same
// value; and the route answers as an encoding/json-only route would.
func checkDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var hand, ref JobSpec
	if accepted = decodeJobSpec(body, &hand); accepted {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
			t.Fatalf("decodeJobSpec accepted what encoding/json rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(hand, ref) {
			t.Fatalf("decodeJobSpec and encoding/json disagree on %q:\nhand %+v\njson %+v", body, hand, ref)
		}
	}
	code, job := submit(bytes.NewReader(body))
	wantCode, wantJob := submitJSONOnly(bytes.NewReader(body))
	if code != wantCode || !reflect.DeepEqual(job, wantJob) {
		t.Fatalf("route answers %d / %+v, encoding/json-only route %d / %+v, on %q", code, job, wantCode, wantJob, body)
	}
	return accepted
}

func FuzzDecodeJob(f *testing.F) {
	for _, b := range canonicalBodies(f, 2) {
		f.Add(b)
	}
	for _, b := range nonCanonical {
		f.Add([]byte(b))
	}
	// Every truncation of one body: the decoder must decline each, which
	// TestDecodeJobCanonical asserts; here they are starting points.
	short := canonicalBodies(f, 1)[0]
	for n := range short {
		f.Add(short[:n])
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestDecodeJobCanonical: the decoder takes every body this repo's
// clients write, and no proper prefix of one.
func TestDecodeJobCanonical(t *testing.T) {
	for _, b := range canonicalBodies(t, 0) {
		if !checkDecode(t, b) {
			t.Errorf("decodeJobSpec declined a canonical body: %.200q…", b)
		}
	}
	short := canonicalBodies(t, 1)[0]
	for n := range short {
		if checkDecode(t, short[:n]) {
			t.Fatalf("decodeJobSpec accepted a body truncated at byte %d of %d", n, len(short))
		}
	}
}

// TestDecodeJobDeclines pins which of the non-canonical bodies the
// decoder may answer itself: only those spelled in its grammar.
func TestDecodeJobDeclines(t *testing.T) {
	accepts := map[string]bool{
		"minus zero": true, "exponents": true, "trailing space": true, "whitespace": true,
		"empty object": true, "empty arrays": true, "nine stages": true, "no kind": true,
		"negative ratio": true, "overflowing totals": true, // well-formed; Validate's to refuse
	}
	for name, body := range nonCanonical {
		if got := checkDecode(t, []byte(body)); got != accepts[name] {
			t.Errorf("%s: decodeJobSpec accepted=%v, want %v", name, got, accepts[name])
		}
	}
}

// TestReadJobOverLimit: a body that runs past MaxBodyBytes answers what
// encoding/json reading the bounded stream answered — 413 when the
// value is still open at the bound, and the value's own answer when it
// closed before it (the decoder never looked further).
func TestReadJobOverLimit(t *testing.T) {
	value := string(marshalJob(t, workload.Generate(workload.BigData(3, 1, 5))[0]))
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"open at the bound":    {`{"name":"` + strings.Repeat("a", MaxBodyBytes) + `","stages":[]}`, http.StatusRequestEntityTooLarge},
		"closed before it":     {value + strings.Repeat(" ", MaxBodyBytes), http.StatusAccepted},
		"exactly at the bound": {value + strings.Repeat(" ", MaxBodyBytes-len(value)), http.StatusAccepted},
	} {
		code, job := submit(strings.NewReader(tc.body))
		wantCode, wantJob := submitJSONOnly(strings.NewReader(tc.body))
		if code != tc.want || code != wantCode || !reflect.DeepEqual(job, wantJob) {
			t.Errorf("%s: status %d, want %d (encoding/json-only route: %d)", name, code, tc.want, wantCode)
		}
	}
	// A Content-Length far beyond the bound sizes nothing.
	r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(value))
	r.ContentLength = 1 << 40
	if _, err := readJob(httptest.NewRecorder(), r); err != nil {
		t.Errorf("readJob with a lying Content-Length: %v", err)
	}
}

// TestDecodeJobDoesNotAliasBuffer: nothing reachable from the job
// refers to the pooled buffer — scribbling over the bytes after the
// decode changes nothing, and concurrent posts that recycle the pool's
// buffers each get their own job back (run under -race).
func TestDecodeJobDoesNotAliasBuffer(t *testing.T) {
	bodies := canonicalBodies(t, 0)
	for _, body := range bodies {
		var want JobSpec
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), body...)
		var spec JobSpec
		if !decodeJobSpec(buf, &spec) {
			t.Fatal("declined a canonical body")
		}
		job, err := spec.ToWorkload()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		wantJob, _ := want.ToWorkload()
		if !reflect.DeepEqual(spec, want) || !reflect.DeepEqual(job, wantJob) {
			t.Fatal("the decoded job changed when the buffer was overwritten")
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := bodies[(g+i)%len(bodies)]
				code, job := submit(bytes.NewReader(body))
				_, want := submitJSONOnly(bytes.NewReader(body))
				if code != http.StatusAccepted || !reflect.DeepEqual(job, want) {
					t.Errorf("concurrent post %d/%d: status %d, job differs from its body", g, i, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeJobAllocs pins the allocations of body → model job on the
// benchmark's submit-steady body shape (4 stages, 3 with deps): the
// name, the stage list, the job and its list of stage pointers (4), and
// per stage its tasks (4) plus its deps (3). encoding/json takes 51.
// The same job with two replicas per partition adds exactly one list
// per replicated task: its tasks array is still sized in one go, the
// replica lists inside it notwithstanding.
func TestDecodeJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const pinned = 11
	plain := workload.BigData(8, 1, 5)
	replicated := plain
	replicated.ReplicaCount = 2
	for _, c := range []struct {
		name string
		cfg  workload.GenConfig
	}{{"ec2-8", plain}, {"ec2-8 replicated", replicated}} {
		j := workload.Generate(c.cfg)[0]
		want := pinned
		for _, st := range j.Stages {
			for _, tk := range st.Tasks {
				if len(tk.Replicas) > 0 {
					want++
				}
			}
		}
		body := marshalJob(t, j)
		got := testing.AllocsPerRun(100, func() {
			var spec JobSpec
			if !decodeJobSpec(body, &spec) {
				t.Fatal("declined")
			}
			if _, err := spec.ToWorkload(); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(want) {
			t.Errorf("decode of the %s body: %.0f allocs, want ≤ %d", c.name, got, want)
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json cannot render answers
// 500 with the usual error body; it used to answer the intended status
// with an empty body, the encoder's error dropped.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, JobStatus{ID: 7, WANBytes: math.Inf(1)})
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusInternalServerError || err != nil || eb.Error == "" {
		t.Errorf("unencodable value: status %d body %q (%v), want 500 and a JSON error body", rec.Code, rec.Body, err)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, JobStatus{ID: 7})
	if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("encodable value: status %d, Content-Length %q for %d bytes", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
}

var sinkJob *workload.Job

// BenchmarkDecodeJob measures body → model job for the two body shapes
// the service benchmark posts (BigData on ec2-8: submit-steady,
// durable-fleet, update-storm; a 50-site job: place-heavy), through
// encoding/json and through decodeJobSpec.
func BenchmarkDecodeJob(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  workload.GenConfig
	}{
		{"ec2-8", workload.BigData(8, 1, 5)},
		{"sim-50", workload.BigData(50, 1, 5)},
	} {
		body := marshalJob(b, workload.Generate(shape.cfg)[0])
		run := func(name string, decode func(*JobSpec) error) {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var spec JobSpec
					err := decode(&spec)
					if err == nil {
						sinkJob, err = spec.ToWorkload()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("json", func(spec *JobSpec) error { return json.NewDecoder(bytes.NewReader(body)).Decode(spec) })
		run("hand", func(spec *JobSpec) error {
			if !decodeJobSpec(body, spec) {
				return fmt.Errorf("declined")
			}
			return nil
		})
	}
}
