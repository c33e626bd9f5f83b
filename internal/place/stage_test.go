package place

import (
	"errors"
	"reflect"
	"testing"

	"tetrium/internal/workload"
)

// stageJob is a map stage of four 1 MB tasks (two at site 0, one at
// site 1 with a replica at site 2, one at site 2) read by a reduce
// stage of four tasks, read in turn by nothing.
func stageJob() *workload.Job {
	m := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: 2, Tasks: []workload.TaskSpec{
		{Src: 0, Input: 1e6}, {Src: 0, Input: 1e6},
		{Src: 1, Replicas: []int{2}, Input: 1e6}, {Src: 2, Input: 1e6},
	}}
	r := &workload.Stage{Kind: workload.ReduceStage, Deps: []int{0}, OutputRatio: 2, EstCompute: 3}
	for _, in := range []float64{1e5, 2e5, 3e5, 4e5} {
		r.Tasks = append(r.Tasks, workload.TaskSpec{Src: -1, Input: in})
	}
	return &workload.Job{Stages: []*workload.Stage{m, r}}
}

// TestStageRequest pins the one question both drivers ask of a stage.
func TestStageRequest(t *testing.T) {
	slots := []int{4, 2, 8}
	up := []float64{1e8, 1e8, 1e8}
	inter := []float64{6e5, 0, 4e5}
	cases := []struct {
		name    string
		idx     int
		pending []int
		slots   []int
		want    Request
	}{
		{
			name: "consumed map stage, replica anchored at its slot-richest copy",
			idx:  0, slots: slots,
			want: Request{Kind: workload.MapStage, Map: MapRequest{
				InputBySite: []float64{2e6, 0, 2e6}, NumTasks: 4, TaskCompute: 2,
				WANBudget: 4e6, OutputBytes: 2e6,
			}},
		},
		{
			name: "replica site poorer than the primary: planned at the primary",
			idx:  0, slots: []int{4, 8, 2},
			want: Request{Kind: workload.MapStage, Map: MapRequest{
				InputBySite: []float64{2e6, 1e6, 1e6}, NumTasks: 4, TaskCompute: 2,
				WANBudget: 4e6, OutputBytes: 2e6,
			}},
		},
		{
			name: "pending subset",
			idx:  0, pending: []int{1, 2}, slots: slots,
			want: Request{Kind: workload.MapStage, Map: MapRequest{
				InputBySite: []float64{1e6, 0, 1e6}, NumTasks: 2, TaskCompute: 2,
				WANBudget: 2e6, OutputBytes: 1e6,
			}},
		},
		{
			name: "terminal reduce stage, half its input pending",
			idx:  1, pending: []int{0, 3}, slots: slots,
			want: Request{Kind: workload.ReduceStage, Reduce: ReduceRequest{
				InterBySite: []float64{3e5, 0, 2e5}, NumTasks: 2, TaskCompute: 3,
				WANBudget: 5e5, OutputBytes: 0,
			}},
		},
		{
			name: "terminal reduce stage, every task",
			idx:  1, slots: slots,
			want: Request{Kind: workload.ReduceStage, Reduce: ReduceRequest{
				InterBySite: inter, NumTasks: 4, TaskCompute: 3,
				WANBudget: 1e6, OutputBytes: 0,
			}},
		},
	}
	for _, tc := range cases {
		got := StageRequest(stageJob(), tc.idx, tc.pending, inter, 1, tc.slots, up)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if tc.pending != nil {
			continue
		}
		all := make([]int, len(stageJob().Stages[tc.idx].Tasks))
		for i := range all {
			all[i] = i
		}
		if every := StageRequest(stageJob(), tc.idx, all, inter, 1, tc.slots, up); !reflect.DeepEqual(every, got) {
			t.Errorf("%s: every index listed %+v, nil pending %+v", tc.name, every, got)
		}
	}
}

// TestStageRequestAllocs: a request allocates its data vector and
// nothing else — no pending index list, no per-task work.
func TestStageRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	job := stageJob()
	slots, up := []int{4, 2, 8}, []float64{1e8, 1e8, 1e8}
	inter := []float64{6e5, 0, 4e5}
	for idx, pending := range [][]int{nil, {0, 3}} {
		if n := testing.AllocsPerRun(100, func() {
			StageRequest(job, idx, pending, inter, 1, slots, up)
		}); n != 1 {
			t.Errorf("stage %d: %v allocs per request, want 1", idx, n)
		}
	}
}

// erringPlacer answers nothing.
type erringPlacer struct{ InPlace }

func (erringPlacer) PlaceMap(Resources, MapRequest) (MapPlacement, error) {
	return MapPlacement{}, errors.New("no answer")
}

// TestDecideStandsInWithInPlace: a placer that errs gets In-Place's
// answer, with the error kept; one that answers gets its own.
func TestDecideStandsInWithInPlace(t *testing.T) {
	res := Resources{Slots: []int{0, 4, 4}, UpBW: []float64{1e8, 1e8, 1e8}, DownBW: []float64{1e8, 1e8, 1e8}}
	req := Request{Kind: workload.MapStage, Map: MapRequest{
		InputBySite: []float64{8e9, 0, 0}, NumTasks: 8, TaskCompute: 1, WANBudget: -1,
	}}
	got := Decide(erringPlacer{}, res, req)
	want := Decide(InPlace{}, res, req)
	if got.Err == nil || want.Err != nil {
		t.Fatalf("errs: stand-in %v, In-Place %v", got.Err, want.Err)
	}
	got.Err = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stand-in %+v, want In-Place's %+v", got, want)
	}
	if want.WAN != 8e9 || want.Est() != want.EstNet+want.EstCompute || want.EstNet <= 0 {
		t.Errorf("In-Place decision %+v: want all 8 GB moved off slotless site 0", want)
	}
}
