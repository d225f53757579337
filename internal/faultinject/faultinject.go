// Package faultinject is the failpoint registry the reliability tests
// drive: named points in production code (journal writes, worker-pool
// execution, compaction) call Eval, which is a single atomic load when
// nothing is armed and an injected fault — an error, a stall, a panic
// or a process exit — when a test or the QOSRM_FAILPOINTS environment
// variable arms the point.
//
// A failpoint is armed with a spec string:
//
//	error            always return ErrInjected
//	error:0.25       return ErrInjected with probability 0.25
//	error*3          return ErrInjected for the next 3 evaluations
//	stall:10ms       sleep 10ms, then proceed
//	stall:10ms*2     sleep on the next 2 evaluations
//	panic            panic (production callers recover and convert to
//	                 an error; the chaos tests exercise that recovery)
//	exit:7           os.Exit(7) — a hard crash point for subprocess
//	                 crash tests
//	off              disarm
//
// Probability and count compose ("error:0.5*4" fires at most 4 times,
// each with probability 0.5). The environment form arms points at
// process start: QOSRM_FAILPOINTS="jobstore.append=error:0.1;server.worker=stall:5ms".
//
// The registry is process-global and safe for concurrent use; the
// armed-count fast path keeps an unarmed Eval call out of every
// profile. Production code must never depend on a failpoint being
// armed — the package exists so tests can prove the code around a
// failure is correct, not to implement behaviour.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error every armed "error" failpoint returns
// (wrapped with the point's name); tests assert on it with errors.Is
// and retry layers may classify it as transient.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind is what an armed failpoint does when it fires.
type Kind int

const (
	// Off means the point is disarmed.
	Off Kind = iota
	// Error returns ErrInjected from Eval.
	Error
	// Stall sleeps for the configured delay, then proceeds normally.
	Stall
	// Panic panics with the point's name.
	Panic
	// Exit terminates the process with the configured code.
	Exit
)

// point is one armed failpoint.
type point struct {
	kind      Kind
	delay     time.Duration
	code      int
	prob      float64 // fire probability per eligible evaluation; 0 means 1
	remaining int64   // remaining firings; <0 means unlimited
}

var (
	// armed counts currently-armed points: the Eval fast path.
	armed atomic.Int32

	mu     sync.Mutex
	points = map[string]*point{}
	hits   = map[string]*atomic.Int64{}
	rng    = rand.New(rand.NewSource(1))
)

func init() {
	if spec := os.Getenv("QOSRM_FAILPOINTS"); spec != "" {
		if err := EnableAll(spec); err != nil {
			// A malformed env spec must fail loudly: silently running
			// without the intended faults would make a chaos run look
			// like a pass.
			panic(fmt.Sprintf("faultinject: QOSRM_FAILPOINTS: %v", err))
		}
	}
}

// Enable arms the named failpoint with spec (see the package comment
// for the grammar). "off" (or an empty spec) disarms it.
func Enable(name, spec string) error {
	p, err := parse(spec)
	if err != nil {
		return fmt.Errorf("faultinject: %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		armed.Add(-1)
		delete(points, name)
	}
	if p != nil {
		points[name] = p
		armed.Add(1)
	}
	return nil
}

// EnableAll arms a semicolon-separated list of name=spec pairs — the
// QOSRM_FAILPOINTS environment grammar.
func EnableAll(specs string) error {
	for _, part := range strings.Split(specs, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faultinject: %q is not name=spec", part)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Reset disarms every failpoint and zeroes the hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	hits = map[string]*atomic.Int64{}
}

// Hits reports how many times the named failpoint has fired since it
// was last Reset.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if h, ok := hits[name]; ok {
		return h.Load()
	}
	return 0
}

// parse compiles one spec string; a nil point means disarmed.
func parse(spec string) (*point, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	p := &point{remaining: -1}
	if base, count, ok := strings.Cut(spec, "*"); ok {
		n, err := strconv.ParseInt(count, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", count)
		}
		p.remaining = n
		spec = base
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "error":
		p.kind = Error
		if arg != "" {
			prob, err := strconv.ParseFloat(arg, 64)
			if err != nil || prob <= 0 || prob > 1 {
				return nil, fmt.Errorf("bad probability %q", arg)
			}
			p.prob = prob
		}
	case "stall":
		p.kind = Stall
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad stall duration %q", arg)
		}
		p.delay = d
	case "panic":
		p.kind = Panic
	case "exit":
		p.kind = Exit
		if arg != "" {
			code, err := strconv.Atoi(arg)
			if err != nil || code < 0 || code > 255 {
				return nil, fmt.Errorf("bad exit code %q", arg)
			}
			p.code = code
		} else {
			p.code = 1
		}
	default:
		return nil, fmt.Errorf("unknown failpoint kind %q", kind)
	}
	return p, nil
}

// Eval evaluates the named failpoint. Disarmed (the overwhelmingly
// common case) it is one atomic load and returns nil. Armed, it fires
// according to the point's kind: Error returns a wrapped ErrInjected,
// Stall sleeps and returns nil, Panic panics, Exit terminates the
// process.
func Eval(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	if p.prob > 0 && rng.Float64() >= p.prob {
		mu.Unlock()
		return nil
	}
	if p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	h, ok := hits[name]
	if !ok {
		h = &atomic.Int64{}
		hits[name] = h
	}
	h.Add(1)
	kind, delay, code := p.kind, p.delay, p.code
	mu.Unlock()

	switch kind {
	case Stall:
		time.Sleep(delay)
		return nil
	case Panic:
		panic("faultinject: " + name)
	case Exit:
		os.Exit(code)
	}
	return fmt.Errorf("%w at %s", ErrInjected, name)
}
