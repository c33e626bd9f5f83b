// Package trace serializes workloads and cluster descriptions to a
// stable JSON format so traces can be generated once, inspected, edited
// and replayed — the role the paper's production trace files play in its
// simulations (§6.1). A trace holds jobs in internal/workload's one job
// encoding, the one POST /v1/jobs and the journal use. The format is
// versioned and forward-checked.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tetrium/internal/cluster"
	"tetrium/internal/workload"
)

// FormatVersion identifies the trace schema.
const FormatVersion = 1

// File is the on-disk trace document.
type File struct {
	Version int             `json:"version"`
	Cluster []cluster.Site  `json:"cluster,omitempty"`
	Jobs    []*workload.Job `json:"jobs"`
	Comment string          `json:"comment,omitempty"`
}

// Encode writes jobs (and optionally a cluster) as JSON.
func Encode(w io.Writer, cl *cluster.Cluster, jobs []*workload.Job, comment string) error {
	f := File{Version: FormatVersion, Jobs: jobs, Comment: comment}
	if cl != nil {
		f.Cluster = cl.Sites
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode parses a trace document and validates every job.
func Decode(r io.Reader) (*cluster.Cluster, []*workload.Job, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, nil, fmt.Errorf("trace: unsupported version %d (want %d)", f.Version, FormatVersion)
	}
	var cl *cluster.Cluster
	if len(f.Cluster) > 0 {
		for i, s := range f.Cluster {
			if s.Slots < 0 || s.UpBW < 0 || s.DownBW < 0 {
				return nil, nil, fmt.Errorf("trace: site %d has negative capacity", i)
			}
		}
		cl = cluster.New(f.Cluster)
	}
	for i, j := range f.Jobs {
		if j == nil {
			return nil, nil, fmt.Errorf("trace: job %d is null", i)
		}
		if err := j.Validate(); err != nil {
			return nil, nil, fmt.Errorf("trace: %w", err)
		}
	}
	return cl, f.Jobs, nil
}

// WriteFile encodes to path.
func WriteFile(path string, cl *cluster.Cluster, jobs []*workload.Job, comment string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Encode(f, cl, jobs, comment); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile decodes from path.
func ReadFile(path string) (*cluster.Cluster, []*workload.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Decode(f)
}
