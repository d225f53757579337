package db

import (
	"fmt"

	"qosrm/internal/bench"
	"qosrm/internal/config"
)

// NumCorners is the number of frequency corners simulated in detail per
// (phase, core size); every other frequency is interpolated between
// them.
const NumCorners = len(fCorners)

// CornerRuns is the raw simulated record block of one phase — the
// complete setting-independent state a serializer needs to round-trip a
// built database. The dense interpolated grid is deliberately excluded:
// it is a pure function of these corners and is re-materialised lazily
// after a load, which keeps the snapshot format minimal and means a
// loaded database is bit-identical to a freshly built one by
// construction of the (deterministic) materialisation.
type CornerRuns = [config.NumSizes][NumCorners][NumWays]Stats

// New returns an empty database shell with the given build parameters,
// ready to receive phases via AddPhases — the entry point for snapshot
// loaders.
func New(traceLen, warmup int) *DB {
	return &DB{
		TraceLen: traceLen,
		Warmup:   warmup,
		Phases:   make(map[string][]*phaseData),
	}
}

// AddPhases appends n empty phases to the named benchmark and returns
// pointers to their corner records, in order, for the caller to fill.
// The returned blocks must be fully populated before the database is
// read. The phases share one backing allocation and one exactly-sized
// pointer slice per benchmark.
func (d *DB) AddPhases(benchName string, n int) []*CornerRuns {
	if n == 0 {
		// A zero-phase benchmark leaves the map untouched rather than
		// gaining an entry with a nil slice.
		return nil
	}
	block := make([]phaseData, n)
	out := make([]*CornerRuns, n)
	ps := d.Phases[benchName]
	if cap(ps)-len(ps) < n {
		grown := make([]*phaseData, len(ps), len(ps)+n)
		copy(grown, ps)
		ps = grown
	}
	for i := range block {
		ps = append(ps, &block[i])
		out[i] = &block[i].Runs
	}
	d.Phases[benchName] = ps
	return out
}

// Corners returns a read-only view of the simulated corner records of
// one phase — the serializer-side counterpart of AddPhases.
func (d *DB) Corners(benchName string, phase int) (*CornerRuns, error) {
	phases, ok := d.Phases[benchName]
	if !ok {
		return nil, fmt.Errorf("db: unknown benchmark %q", benchName)
	}
	if phase < 0 || phase >= len(phases) {
		return nil, fmt.Errorf("db: %s has no phase %d", benchName, phase)
	}
	pd := phases[phase]
	if pd == nil {
		return nil, fmt.Errorf("db: %s phase %d not built", benchName, phase)
	}
	return &pd.Runs, nil
}

// Covers reports whether the database holds every phase of every given
// benchmark — the coverage check callers run before serving a loaded or
// cached database.
func (d *DB) Covers(benches []*bench.Benchmark) bool {
	for _, b := range benches {
		phases, ok := d.Phases[b.Name]
		if !ok || len(phases) != len(b.Phases) {
			return false
		}
		for _, p := range phases {
			if p == nil {
				return false
			}
		}
	}
	return true
}
