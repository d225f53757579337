package sim

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"qosrm/internal/db"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// tableCap bounds the curves one database's table holds, about 16 MB at
// ~480 B per curve. A batch of scenarios touches a few thousand keys;
// when a stream of one-off keys (requests may pass any alpha) reaches
// the cap, the table is cleared and refills.
const tableCap = 1 << 15

// curveKey is everything a local optimisation depends on: rm.Localize
// is a pure function of it. A model-predicted curve is keyed by the
// measured interval's record, whose address in the database's dense
// grid identifies its (benchmark, phase, setting); the perfect oracle
// reads the upcoming phase itself, so its curve is keyed by benchmark
// and phase, with rec nil and model 0 (it predicts with no model).
type curveKey struct {
	rec   *db.Stats
	bench string
	phase int
	alpha float64
	rm    rm.Kind
	model perfmodel.Kind
}

// curveTable is one database's memo of rm.Localize results, shared by
// every run against that database: sweep workers, a server's job
// workers and its synchronous requests. An entry is written once and
// never changes, and Localize is pure, so no result depends on which
// run filled an entry.
//
// Lookups first read a published map that is never written again, so
// a warm hit takes no lock, allocates nothing and writes nothing shared.
// New curves go into dirty, under mu; once lookups have missed the
// published map as often as dirty holds entries, dirty is published in
// its place, and the next insert starts a fresh dirty from a copy. So
// a copy is paid for by as many locked lookups, as in sync.Map, whose
// interface-typed keys would allocate on every lookup.
type curveTable struct {
	read atomic.Pointer[map[curveKey]*rm.Curve]

	mu     sync.Mutex
	dirty  map[curveKey]*rm.Curve // nil, or read's entries plus newer ones
	misses int                    // locked lookups since the last publish

	computed atomic.Int64 // rm.Localize calls made through store
}

// load returns the curve under k, or nil when it is not in the table.
func (t *curveTable) load(k curveKey) *rm.Curve {
	if m := t.read.Load(); m != nil {
		if cv := (*m)[k]; cv != nil {
			return cv
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty == nil {
		return nil
	}
	cv := t.dirty[k]
	if t.misses++; t.misses >= len(t.dirty) {
		m := t.dirty
		t.read.Store(&m)
		t.dirty, t.misses = nil, 0
	}
	return cv
}

// store enters cv, a curve just computed for k, and returns the table's
// curve for k: cv, or the identical curve another run entered first. At
// the cap the table starts a new epoch: it drops every entry, while
// curves already handed out stay valid.
func (t *curveTable) store(k curveKey, cv rm.Curve) *rm.Curve {
	t.computed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty == nil {
		if m := t.read.Load(); m != nil {
			t.dirty = maps.Clone(*m)
		} else {
			t.dirty = make(map[curveKey]*rm.Curve)
		}
	}
	if old := t.dirty[k]; old != nil {
		return old
	}
	if len(t.dirty) >= tableCap {
		clear(t.dirty)
		t.read.Store(nil)
		t.misses = 0
	}
	t.dirty[k] = &cv
	return &cv
}

// len returns the number of curves in the table.
func (t *curveTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty != nil {
		return len(t.dirty)
	}
	if m := t.read.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// tables attaches a curve table to each database a managed run has
// read. Its keys are weak, so it never keeps a database alive: a cleanup
// deletes the entry once the database is collected, and the table goes
// with it. The table lives here rather than in db.DB because db must
// not import rm.
var tables = struct {
	sync.Mutex
	m map[weak.Pointer[db.DB]]*curveTable
}{m: make(map[weak.Pointer[db.DB]]*curveTable)}

// curvesFor returns d's curve table, attaching an empty one on first
// use. Runs resolve it once, never per interval.
func curvesFor(d *db.DB) *curveTable {
	k := weak.Make(d)
	tables.Lock()
	defer tables.Unlock()
	t := tables.m[k]
	if t == nil {
		t = new(curveTable)
		tables.m[k] = t
		runtime.AddCleanup(d, func(k weak.Pointer[db.DB]) {
			tables.Lock()
			delete(tables.m, k)
			tables.Unlock()
		}, k)
	}
	return t
}

// CurveStats reports d's curve table: the curves it holds, and the
// rm.Localize calls it has made, one per miss, since it was attached.
func CurveStats(d *db.DB) (curves int, computed int64) {
	t := curvesFor(d)
	return t.len(), t.computed.Load()
}
