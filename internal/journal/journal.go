// Package journal gives tetrium-serve durable restart: an append-only
// log of job admissions, placements, and completions, compacted by
// periodic snapshot+truncate and replayed on startup so a kill -9
// loses no accepted job.
//
// Frame format: each record is one line, `~CCCCCCCC <json>` where
// CCCCCCCC is the lowercase hex CRC32 (IEEE) of the JSON payload
// bytes. Replay applies no line that has not passed its checksum. That
// includes the unframed bare-JSON lines builds before CRC framing wrote:
// a journal still holding such a tail (never snapshotted or cleanly
// closed by a framing build) is not replayable — each unframed line is
// quarantined like any damaged one and its job is lost. Likewise an
// admit record whose spec predates internal/workload's job encoding
// (Go field names, the stage kind a number) fails to parse and is
// quarantined, and a snapshot holding such a live job fails Open.
//
// Durability model: records are written straight to the file descriptor
// (no user-space buffering), so once Admit returns, the record survives
// a crash of the process. Appends are not fsynced — a simultaneous
// kernel crash or power loss can lose the tail, which is the standard
// trade for a scheduler journal (the jobs' own data is not at stake,
// only the obligation to re-run them). The one exception is the
// generation record written by Open, which is fsynced before Open
// returns so restart epochs are totally ordered even across power loss.
//
// Corruption: a record that fails its CRC, or fails to parse, is
// quarantined — its raw line is appended to <path>.corrupt — and replay
// continues with the next line. A torn final line (the write in flight
// at the kill) lands in the same path: its effect was never
// acknowledged, so dropping it is correct. State.Quarantined counts the
// damage so the engine can surface it as a metric.
//
// Generations: every Open appends a fsync'd `gen` record holding a
// generation one past the highest ever seen in the journal/snapshot.
// A restarted shard therefore owns a strictly larger generation than
// the instance it replaced; the federation supervisor checks this
// monotonicity when swapping a restarted shard in, so a half-restored
// shard can never double-ack against a stale epoch.
//
// Compaction: every SnapEvery records the full state is written to
// <path>.snap (tmp file + fsync + atomic rename) and the journal is
// truncated. Recovery therefore reads the snapshot first, then replays
// whatever journal tail accumulated after it. Replay is idempotent:
// duplicate records (possible when a crash lands between the snapshot
// rename and the truncate) overwrite rather than double-apply.
package journal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"tetrium/internal/workload"
)

// record is one journal line's payload. K selects which fields are
// meaningful.
type record struct {
	K string `json:"k"` // "admit" | "place" | "done" | "gen"
	// ID is the engine-assigned job ID.
	ID int `json:"id"`
	// T is wall-clock unix milliseconds of the record.
	T int64 `json:"t"`

	// admit: the job in internal/workload's job encoding, its name
	// included.
	Spec *workload.Job `json:"spec,omitempty"`
	// done
	Name string `json:"name,omitempty"`
	// Tenant attributes the job for fleet analytics (admit and done
	// records). Absent in journals written before the field existed;
	// replay defaults it to "default".
	Tenant string `json:"tenant,omitempty"`
	// Idem is the client-supplied idempotency key (admit and done
	// records), empty when the submission carried none.
	Idem string `json:"idem,omitempty"`

	// place
	Stage int `json:"stage,omitempty"`

	// done
	Stages   int     `json:"stages,omitempty"`
	WANBytes float64 `json:"wan_bytes,omitempty"`

	// gen
	Gen int `json:"gen,omitempty"`
}

// LiveJob is an admitted-but-unfinished job reconstructed at recovery:
// the engine re-runs it from scratch (placements are decisions, not
// completed work — the cluster may have changed across the restart, so
// replaying them would be wrong; they are journaled for forensics and
// the Placed marker only).
type LiveJob struct {
	ID          int
	Tenant      string
	IdemKey     string
	SubmittedMs int64
	Placed      bool // at least one stage had a placement decision
	Spec        *workload.Job
}

// DoneJob is a completed job's terminal record.
type DoneJob struct {
	ID          int
	Name        string
	Tenant      string
	IdemKey     string
	Stages      int
	SubmittedMs int64
	FinishedMs  int64
	WANBytes    float64
}

// State is the recovered journal state, in ID order.
type State struct {
	// NextID is one past the highest job ID ever admitted, so restarted
	// engines never reuse an ID.
	NextID int
	Live   []LiveJob
	Done   []DoneJob
	// Generation is this open's epoch: one past the highest generation
	// previously recorded. Zero only from ReadFile on a pre-generation
	// journal (read-only recovery does not mint a new epoch — it
	// reports the highest seen).
	Generation int
	// Quarantined counts records that failed CRC or parsing during this
	// recovery and were diverted to <path>.corrupt.
	Quarantined int
}

// Journal is an open journal. Methods are not safe for concurrent use;
// the engine calls them from its single-writer loop.
type Journal struct {
	path        string
	f           *os.File
	snapEvery   int
	appended    int // records since the last snapshot
	gen         int
	quarantined int
	readonly    bool // ReadFile recovery: never write (not even .corrupt)

	// state mirrors what recovery would reconstruct, so snapshots need
	// no replay of the file being compacted.
	live   map[int]*LiveJob
	done   map[int]*DoneJob
	nextID int
}

// Open opens (creating if absent) the journal at path, recovers its
// state (snapshot at path+".snap", then the journal tail), mints a new
// generation (fsync'd), and returns both. snapEvery bounds journal
// growth: a snapshot+truncate runs after that many appended records
// (<=0: default 1024).
func Open(path string, snapEvery int) (*Journal, *State, error) {
	if snapEvery <= 0 {
		snapEvery = 1024
	}
	j := &Journal{
		path:      path,
		snapEvery: snapEvery,
		live:      make(map[int]*LiveJob),
		done:      make(map[int]*DoneJob),
	}
	if err := j.loadSnapshot(); err != nil {
		return nil, nil, fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := j.replayTail(); err != nil {
		return nil, nil, fmt.Errorf("journal: replay: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.gen++
	if err := j.append(record{K: "gen", Gen: j.gen}); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: generation: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: generation: %w", err)
	}
	return j, j.state(), nil
}

// Admit journals a job admission. It must return before the admission
// is acknowledged to the client: an error rejects the submission.
// tenant may be empty; replay normalizes it to "default". idemKey may
// be empty.
func (j *Journal) Admit(id int, nowMs int64, tenant string, spec *workload.Job) error {
	return j.AdmitIdem(id, nowMs, tenant, "", spec)
}

// AdmitIdem is Admit carrying the client's idempotency key, so replay
// can rebuild the submit-dedup index.
func (j *Journal) AdmitIdem(id int, nowMs int64, tenant, idemKey string, spec *workload.Job) error {
	return j.append(record{K: "admit", ID: id, T: nowMs, Tenant: tenant, Idem: idemKey, Spec: spec})
}

// Place journals a placement decision for one stage of a live job.
func (j *Journal) Place(id, stage int, nowMs int64) error {
	return j.append(record{K: "place", ID: id, Stage: stage, T: nowMs})
}

// Done journals a job completion. tenant may be empty; replay
// normalizes it to "default".
func (j *Journal) Done(id int, nowMs int64, tenant, name string, stages int, wanBytes float64) error {
	idem := ""
	if lj, ok := j.live[id]; ok {
		idem = lj.IdemKey
	}
	return j.append(record{K: "done", ID: id, T: nowMs, Tenant: tenant, Idem: idem, Name: name, Stages: stages, WANBytes: wanBytes})
}

// Close snapshots the final state and closes the file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	snapErr := j.snapshot()
	err := j.f.Close()
	j.f = nil
	if snapErr != nil {
		return snapErr
	}
	return err
}

// Abandon closes the file WITHOUT the final snapshot — the in-process
// analogue of kill -9 for chaos tooling: the tail stays exactly as
// appended, so the next Open replays it record by record (and
// quarantines any damage) instead of trusting a compacted snapshot.
func (j *Journal) Abandon() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Generation returns the epoch minted by this Open. Immutable after
// Open, so safe to read from any goroutine.
func (j *Journal) Generation() int { return j.gen }

// Snapshot forces an immediate snapshot+truncate. The engine calls it
// after recovering a panic so the freshest consistent state is fsync'd
// on disk before the supervisor decides whether to restart the shard.
func (j *Journal) Snapshot() error {
	if j.f == nil {
		return nil
	}
	return j.snapshot()
}

func (j *Journal) append(rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := make([]byte, 0, len(b)+11)
	line = append(line, '~')
	line = appendCRCHex(line, crc32.ChecksumIEEE(b))
	line = append(line, ' ')
	line = append(line, b...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.apply(rec)
	j.appended++
	if j.appended >= j.snapEvery {
		if err := j.snapshot(); err != nil {
			return err
		}
	}
	return nil
}

// appendCRCHex appends the 8-digit lowercase hex of crc to dst.
func appendCRCHex(dst []byte, crc uint32) []byte {
	var buf [4]byte
	buf[0] = byte(crc >> 24)
	buf[1] = byte(crc >> 16)
	buf[2] = byte(crc >> 8)
	buf[3] = byte(crc)
	var out [8]byte
	hex.Encode(out[:], buf[:])
	return append(dst, out[:]...)
}

// apply folds one record into the mirrored state. Idempotent.
func (j *Journal) apply(rec record) {
	if rec.K != "gen" && rec.ID >= j.nextID {
		j.nextID = rec.ID + 1
	}
	switch rec.K {
	case "gen":
		if rec.Gen > j.gen {
			j.gen = rec.Gen
		}
	case "admit":
		if _, isDone := j.done[rec.ID]; isDone {
			return
		}
		j.live[rec.ID] = &LiveJob{ID: rec.ID, Tenant: tenantOr(rec.Tenant), IdemKey: rec.Idem, SubmittedMs: rec.T, Spec: rec.Spec}
	case "place":
		if lj, ok := j.live[rec.ID]; ok {
			lj.Placed = true
		}
	case "done":
		submitted := rec.T
		tenant := tenantOr(rec.Tenant)
		idem := rec.Idem
		if lj, ok := j.live[rec.ID]; ok {
			submitted = lj.SubmittedMs
			if rec.Tenant == "" {
				// Pre-tenant done records inherit the admit's attribution.
				tenant = lj.Tenant
			}
			if idem == "" {
				idem = lj.IdemKey
			}
			delete(j.live, rec.ID)
		}
		j.done[rec.ID] = &DoneJob{
			ID: rec.ID, Name: rec.Name, Tenant: tenant, IdemKey: idem, Stages: rec.Stages,
			SubmittedMs: submitted, FinishedMs: rec.T, WANBytes: rec.WANBytes,
		}
	}
}

// tenantOr normalizes a possibly-absent journaled tenant: journals
// written before the field existed replay as the default tenant.
func tenantOr(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// ReadFile recovers journal state read-only — snapshot at path+".snap"
// (if present) plus the journal tail — without opening the file for
// appending or mutating anything on disk (corrupt records are counted
// but not quarantined, and no new generation is minted). Offline
// consumers (cmd/tetrium-fleet) use it to ingest a serve run's journal
// while the engine may still own the live file.
func ReadFile(path string) (*State, error) {
	j := &Journal{
		path:     path,
		readonly: true,
		live:     make(map[int]*LiveJob),
		done:     make(map[int]*DoneJob),
	}
	if err := j.loadSnapshot(); err != nil {
		return nil, fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := j.replayTail(); err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	return j.state(), nil
}

func (j *Journal) state() *State {
	st := &State{NextID: j.nextID, Generation: j.gen, Quarantined: j.quarantined}
	for _, lj := range j.live {
		st.Live = append(st.Live, *lj)
	}
	for _, dj := range j.done {
		st.Done = append(st.Done, *dj)
	}
	sort.Slice(st.Live, func(a, b int) bool { return st.Live[a].ID < st.Live[b].ID })
	sort.Slice(st.Done, func(a, b int) bool { return st.Done[a].ID < st.Done[b].ID })
	return st
}

// snapshot writes the mirrored state to <path>.snap atomically, then
// truncates the journal. A crash between rename and truncate leaves
// records that replay idempotently on top of the snapshot.
func (j *Journal) snapshot() error {
	snap := j.path + ".snap"
	tmp := snap + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	st := j.state()
	enc := json.NewEncoder(f)
	if err := enc.Encode(snapState{NextID: st.NextID, Gen: st.Generation, Live: st.Live, Done: st.Done}); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, snap); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if j.f != nil {
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("journal: truncate: %w", err)
		}
		if _, err := j.f.Seek(0, 0); err != nil {
			return fmt.Errorf("journal: truncate: %w", err)
		}
	}
	j.appended = 0
	return nil
}

// snapState is the snapshot file's schema.
type snapState struct {
	NextID int       `json:"next_id"`
	Gen    int       `json:"gen,omitempty"`
	Live   []LiveJob `json:"live"`
	Done   []DoneJob `json:"done"`
}

func (j *Journal) loadSnapshot() error {
	b, err := os.ReadFile(j.path + ".snap")
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var ss snapState
	if err := json.Unmarshal(b, &ss); err != nil {
		return err
	}
	j.nextID = ss.NextID
	j.gen = ss.Gen
	for i := range ss.Live {
		lj := ss.Live[i]
		j.live[lj.ID] = &lj
	}
	for i := range ss.Done {
		dj := ss.Done[i]
		j.done[dj.ID] = &dj
	}
	return nil
}

func (j *Journal) replayTail() error {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		payload, reason := verifyFrame(line)
		if payload == nil {
			if err := j.quarantine(line, reason); err != nil {
				return err
			}
			continue
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			if qerr := j.quarantine(line, "unparseable json"); qerr != nil {
				return qerr
			}
			continue
		}
		j.apply(rec)
		j.appended++
	}
	return sc.Err()
}

// verifyFrame validates one journal line and returns its JSON payload,
// or (nil, reason) if the line is damaged.
func verifyFrame(line []byte) (payload []byte, reason string) {
	if line[0] != '~' {
		return nil, "unrecognized frame"
	}
	// ~CCCCCCCC <json> — 1 sentinel + 8 hex + 1 space = 10-byte header.
	if len(line) < 11 || line[9] != ' ' {
		return nil, "truncated frame"
	}
	var crcb [4]byte
	if _, err := hex.Decode(crcb[:], line[1:9]); err != nil {
		return nil, "bad crc encoding"
	}
	want := uint32(crcb[0])<<24 | uint32(crcb[1])<<16 | uint32(crcb[2])<<8 | uint32(crcb[3])
	payload = line[10:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, "crc mismatch"
	}
	return payload, ""
}

// quarantine diverts a damaged journal line to <path>.corrupt and lets
// replay continue. Read-only recovery only counts the damage.
func (j *Journal) quarantine(line []byte, reason string) error {
	j.quarantined++
	if j.readonly {
		return nil
	}
	f, err := os.OpenFile(j.path+".corrupt", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	defer f.Close()
	buf := make([]byte, 0, len(line)+len(reason)+16)
	buf = append(buf, "# "...)
	buf = append(buf, reason...)
	buf = append(buf, '\n')
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	return nil
}

// CorruptRecord flips one byte in the middle of the rec'th line
// (0-indexed) of the journal at path, in place. It exists for chaos
// injection (`corrupt@T:shard=I,rec=N`) and tests; never call it on a
// journal you care about.
func CorruptRecord(path string, rec int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: corrupt: %w", err)
	}
	offset := 0
	rest := b
	for i := 0; i < rec; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return fmt.Errorf("journal: corrupt: record %d beyond end of %s", rec, path)
		}
		offset += nl + 1
		rest = rest[nl+1:]
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		nl = len(rest)
	}
	if nl == 0 {
		return fmt.Errorf("journal: corrupt: record %d of %s is empty", rec, path)
	}
	pos := offset + nl/2
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: corrupt: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{b[pos] ^ 0xff}, int64(pos)); err != nil {
		return fmt.Errorf("journal: corrupt: %w", err)
	}
	return nil
}
