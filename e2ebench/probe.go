package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe. On a shared host the box's speed drifts by a quarter
// and more over minutes, as the neighbours' load moves the clock and the
// shared cache, and a host second then buys less of every phase. Runs a
// few minutes apart read such drift as a change of the program. So every
// run also times a fixed workload that belongs to the benchmark, not to
// the program, before each of its phase segments, and scales its time
// metrics to the speed at which the probe takes probeRefMs: a metric then
// reads as host time on a box of the reference speed. The probe's median
// and the unscaled values go into the box record.
const (
	// probeTableBytes is the table the probe reads at random: larger than
	// a core's private caches, so the shared cache and memory the program
	// leans on show in the probe too. It is mapped outside the Go heap,
	// so it does not move the collector's pacing of the program, and in
	// small pages, so that whether huge pages were free does not move the
	// probe.
	probeTableBytes = 32 << 20
	// probeSteps is each worker's number of table reads per sample.
	probeSteps = 1 << 17
	// probeRefMs is the probe's median wall time on the reference box (a
	// shared 2-vCPU VM, go1.24). It sets the level of the scaled metrics,
	// not their spread.
	probeRefMs = 33.0
	// probeReps samples are taken before every phase segment.
	probeReps = 2
)

// probeSink keeps the probe's results observable to the compiler.
var probeSink [64]uint64

// speedProbe times the probe workload on as many goroutines as the
// phases use, so that it sees the contention they see.
type speedProbe struct {
	mem     []byte
	table   []uint64
	workers int
	ms      []float64
}

func newSpeedProbe(workers int) (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe table: %w", err)
	}
	if err := syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE); err != nil {
		syscall.Munmap(mem)
		return nil, fmt.Errorf("probe table: %w", err)
	}
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range table {
		x = mix(x)
		table[i] = x
	}
	return &speedProbe{mem: mem, table: table, workers: min(workers, len(probeSink))}, nil
}

// close unmaps the table.
func (p *speedProbe) close() {
	syscall.Munmap(p.mem)
}

// samples collects garbage, so that no collection the program's phases
// left running competes with the probe, and then takes probeReps samples.
func (p *speedProbe) samples() {
	runtime.GC()
	for i := 0; i < probeReps; i++ {
		p.sample()
	}
}

// sample runs the probe workload once on every worker and records its
// wall time.
func (p *speedProbe) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeSink[w] = probeKernel(p.table, uint64(w+1), probeSteps)
		}()
	}
	wg.Wait()
	p.ms = append(p.ms, float64(time.Since(t0))/1e6)
}

// speed is how much faster than the reference the box ran the probe over
// the run: the reference time over the median of the samples.
func (p *speedProbe) speed() float64 {
	return ratio(probeRefMs, median(p.ms))
}

// probeKernel mixes what the phases do: each step reads the table at an
// index that depends on the previous read, as the simulators' table walks
// do, then runs a short chain of integer, floating-point and branch work
// on the value.
func probeKernel(table []uint64, seed uint64, steps int) uint64 {
	mask := uint64(len(table) - 1)
	x, acc := mix(seed), uint64(0)
	f := 1.0
	for i := 0; i < steps; i++ {
		v := table[x&mask]
		for k := 0; k < 8; k++ {
			v = mix(v + x)
			switch v & 3 {
			case 0:
				f = f*0.999999 + float64(v>>40)*1e-12
			case 1:
				acc += v >> 7
			case 2:
				acc ^= v << 3
			default:
				f += 1e-9
			}
		}
		x = v
	}
	return acc + uint64(f)
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
