package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	cl := cluster.PaperExample()
	jobs := workload.Generate(workload.BigData(3, 5, 1))
	var buf bytes.Buffer
	if err := Encode(&buf, cl, jobs, "test trace"); err != nil {
		t.Fatal(err)
	}
	cl2, jobs2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cl2, cl) {
		t.Errorf("cluster changed in the round trip:\n got %v\nwant %v", cl2.Sites, cl.Sites)
	}
	if !reflect.DeepEqual(jobs2, jobs) {
		t.Error("jobs changed in the round trip")
	}
}

// TestDecodeParentFile: a trace written before the job encoding moved
// into internal/workload — by `tetrium-trace gen -trace bigdata
// -cluster paper -jobs 2 -seed 2` — still decodes to exactly the jobs
// and cluster that generated it.
func TestDecodeParentFile(t *testing.T) {
	cl, jobs, err := ReadFile(filepath.Join("testdata", "bigdata-paper-2jobs-seed2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.PaperExample(); !reflect.DeepEqual(cl, want) {
		t.Errorf("cluster = %v, want %v", cl.Sites, want.Sites)
	}
	if want := workload.Generate(workload.BigData(3, 2, 2)); !reflect.DeepEqual(jobs, want) {
		t.Error("jobs differ from the generator's")
	}
}

func TestRoundTripNoCluster(t *testing.T) {
	jobs := workload.Generate(workload.BigData(4, 2, 2))
	var buf bytes.Buffer
	if err := Encode(&buf, nil, jobs, ""); err != nil {
		t.Fatal(err)
	}
	cl, jobs2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cl != nil {
		t.Error("expected nil cluster")
	}
	if len(jobs2) != 2 {
		t.Errorf("jobs = %d", len(jobs2))
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      "{not json",
		"bad version":  `{"version": 99, "jobs": []}`,
		"bad kind":     `{"version": 1, "jobs": [{"id":0,"stages":[{"kind":"shuffle","tasks":[{"src":0,"input":1,"compute":1}]}]}]}`,
		"invalid job":  `{"version": 1, "jobs": [{"id":0,"stages":[]}]}`,
		"negative cap": `{"version": 1, "cluster":[{"name":"x","slots":-1}], "jobs": []}`,
		"null job":     `{"version": 1, "jobs": [null]}`,
		"null stage":   `{"version": 1, "jobs": [{"id":0,"stages":[null]}]}`,
	}
	for name, doc := range cases {
		if _, _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	cl := cluster.EC2EightRegions()
	jobs := workload.Generate(workload.TPCDS(8, 3, 3))
	if err := WriteFile(path, cl, jobs, "file test"); err != nil {
		t.Fatal(err)
	}
	cl2, jobs2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cl2.N() != 8 || len(jobs2) != 3 {
		t.Errorf("got %d sites, %d jobs", cl2.N(), len(jobs2))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := ReadFile("/nonexistent/trace.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReplicasRoundTrip(t *testing.T) {
	cfg := workload.BigData(6, 3, 9)
	cfg.ReplicaCount = 2
	jobs := workload.Generate(cfg)
	var buf bytes.Buffer
	if err := Encode(&buf, nil, jobs, ""); err != nil {
		t.Fatal(err)
	}
	_, jobs2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for ji, j := range jobs2 {
		for si, s := range j.Stages {
			for ti, task := range s.Tasks {
				orig := jobs[ji].Stages[si].Tasks[ti]
				if len(task.Replicas) != len(orig.Replicas) {
					t.Fatalf("replica count differs at job %d stage %d task %d", ji, si, ti)
				}
				if len(task.Replicas) > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no replicas generated")
	}
}
