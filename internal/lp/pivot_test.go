package lp

import (
	"math"
	"math/rand"
	"testing"
)

// densePivot is the reference pivot: Gauss-Jordan elimination that
// updates every column of every row with a non-zero in the pivot
// column, the solver's kernel before it learned to skip the pivot
// row's zeros.
func densePivot(t *tableau, row, col int) {
	nc := t.ncols
	pr := t.a[row*nc : (row+1)*nc]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	t.b[row] *= inv
	pr[col] = 1
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.a[i*nc : (i+1)*nc]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
	t.pivots++
}

// tableauEntry is a random non-zero of either sign spanning twelve
// decades, the spread an equilibrated placement tableau can hold.
func tableauEntry(rng *rand.Rand) float64 {
	v := (0.1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(13)-6))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestPivotMatchesDenseReference pivots random tableaus once with the
// solver's kernel and once with densePivot and demands the same
// tableau: every entry, every rhs and the basis equal under ==. That is
// the equality the solver's own tests on a tableau respect, since they
// cannot tell −0 from +0 (see pivot). The pivot row's density sweeps 0
// to 100 % across the trials, so the indexed and the dense update both
// run, on widths with and without a partial eight-entry tail. Pivots
// are negative half the time (a negative one turns +0 into −0), entries
// start as −0 as well as +0, and some rows are all zero or already zero
// in the pivot column.
func TestPivotMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 2424
	var sparse, signedZeros int
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(12)
		nc := 1 + rng.Intn(90)
		density := float64(trial%101) / 100
		row, col := rng.Intn(m), rng.Intn(nc)
		a := make([]float64, m*nc)
		for i := 0; i < m; i++ {
			d := density
			if i != row {
				switch rng.Intn(4) {
				case 0:
					continue // an all-zero row
				case 1:
					d = rng.Float64()
				}
			}
			ri := a[i*nc : (i+1)*nc]
			for j := range ri {
				switch {
				case rng.Float64() < d:
					ri[j] = tableauEntry(rng)
				case rng.Intn(2) == 0:
					ri[j] = math.Copysign(0, -1)
				}
			}
			if i != row && rng.Intn(4) == 0 {
				ri[col] = 0
			}
		}
		a[row*nc+col] = tableauEntry(rng)
		b := make([]float64, m)
		basis := make([]int, m)
		for i := range b {
			b[i] = math.Abs(tableauEntry(rng))
			basis[i] = rng.Intn(nc)
		}
		got := tableau{m: m, ncols: nc, a: a, b: b, basis: basis}
		want := tableau{m: m, ncols: nc,
			a:     append([]float64(nil), a...),
			b:     append([]float64(nil), b...),
			basis: append([]int(nil), basis...),
		}
		got.pivot(row, col)
		densePivot(&want, row, col)
		if sparsePivot(len(got.nz), nc) {
			sparse++
		}
		for k := range want.a {
			if got.a[k] != want.a[k] {
				t.Fatalf("trial %d (%d×%d, pivot (%d,%d), density %.2f): a[%d][%d] = %v, dense reference %v",
					trial, m, nc, row, col, density, k/nc, k%nc, got.a[k], want.a[k])
			}
			if math.Float64bits(got.a[k]) != math.Float64bits(want.a[k]) {
				signedZeros++
			}
		}
		for i := range want.b {
			if got.b[i] != want.b[i] || got.basis[i] != want.basis[i] {
				t.Fatalf("trial %d: row %d: b %v basis %d, dense reference b %v basis %d",
					trial, i, got.b[i], got.basis[i], want.b[i], want.basis[i])
			}
		}
		if got.pivots != want.pivots {
			t.Fatalf("trial %d: pivots %d, dense reference %d", trial, got.pivots, want.pivots)
		}
	}
	// The sweep must reach both updates and the case the signed-zero
	// argument is about, or the equalities above prove less than they
	// say.
	if sparse == 0 || sparse == trials {
		t.Fatalf("%d of %d pivots took the indexed update; the sweep must cover both", sparse, trials)
	}
	if signedZeros == 0 {
		t.Fatal("no entry differed from the reference in the sign of a zero; the sweep no longer covers the case")
	}
	t.Logf("%d of %d pivots indexed, %d entries differing only in the sign of a zero", sparse, trials, signedZeros)
}
