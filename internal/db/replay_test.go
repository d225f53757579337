package db

import (
	"testing"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
)

// preparedPhase builds one phase's preparation for replay-tree tests.
func preparedPhase(t *testing.T, benchName string) *phasePrep {
	t.Helper()
	b, err := bench.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	prep := &phasePrep{}
	prep.prepare(b.Phases[0].Params, Options{TraceLen: 4096, Warmup: 1024})
	if len(prep.events) < 16 {
		t.Fatalf("phase has only %d LLC events; test needs more", len(prep.events))
	}
	return prep
}

// refReplay feeds the delivery order into a clone of the warm state the
// straightforward way — the semantics the tree must reproduce exactly.
func refReplay(prep *phasePrep, perm []int32) *atd.ATD {
	a := prep.warm.Clone()
	for _, r := range perm {
		e := prep.events[r]
		a.Access(e.Addr, e.InstIdx, e.IsLoad)
	}
	return a
}

func identityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// TestReplayTreeMatchesDirectReplay drives the prefix-sharing tree
// through inserts that exercise every structural case — fresh leaf,
// long shared prefix (edge split near the end), early divergence
// (split near the root), exact duplicate — and checks each returned
// ATD against a direct warm-clone replay, bit for bit.
func TestReplayTreeMatchesDirectReplay(t *testing.T) {
	prep := preparedPhase(t, "mcf")
	n := len(prep.events)

	swapped := func(i, j int) []int32 {
		p := identityPerm(n)
		p[i], p[j] = p[j], p[i]
		return p
	}
	perms := [][]int32{
		identityPerm(n),     // first leaf below the root
		swapped(n-2, n-1),   // splits the leaf's edge at its tail
		swapped(0, 1),       // diverges at the first event
		swapped(n/2, n/2+1), // splits mid-edge
		identityPerm(n),     // exact duplicate of the first insert
	}
	for i, perm := range perms {
		got := prep.replay(perm)
		want := refReplay(prep, perm)
		if got.MissCurve() != want.MissCurve() {
			t.Fatalf("perm %d: miss curves diverge", i)
		}
		if got.LMMatrix() != want.LMMatrix() {
			t.Fatalf("perm %d: LM matrices diverge", i)
		}
		if got.Accesses() != want.Accesses() {
			t.Fatalf("perm %d: access counts diverge", i)
		}
	}

	// Exact duplicates share one instance — the dedup the seed had,
	// preserved by the tree.
	if prep.replay(identityPerm(n)) != prep.replay(identityPerm(n)) {
		t.Fatal("duplicate sequences did not share one replayed ATD")
	}
	// The empty sequence is the warm state itself.
	if prep.replay(nil) != prep.warm {
		t.Fatal("empty delivery sequence must return the warm ATD")
	}
}

// TestBuildMatchesReferenceHeavyOverlap extends the sweep equivalence
// contract to a workload whose runs have heavily overlapping delivery
// sequences (bwaves-class phases dedup at ~65%, the replay tree's best
// case) alongside a cache-sensitive one — the COW/prefix-sharing paths
// must stay bit-identical to the seed build there too.
func TestBuildMatchesReferenceHeavyOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("reference build is slow")
	}
	names := []string{"bwaves", "xalancbmk"}
	benches := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		benches[i] = b
	}
	opts := Options{TraceLen: 8192, Warmup: 2048}
	fast, err := Build(benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		fp, rp := fast.Phases[b.Name], ref.Phases[b.Name]
		if len(fp) != len(rp) {
			t.Fatalf("%s: phase count %d vs %d", b.Name, len(fp), len(rp))
		}
		for p := range fp {
			if fp[p].Runs != rp[p].Runs {
				for ci := range fp[p].Runs {
					for k := range fp[p].Runs[ci] {
						for wi := range fp[p].Runs[ci][k] {
							if fp[p].Runs[ci][k][wi] != rp[p].Runs[ci][k][wi] {
								t.Fatalf("%s phase %d c=%d k=%d w=%d: records diverge",
									b.Name, p, ci, k, config.MinWays+wi)
							}
						}
					}
				}
			}
		}
	}
}
