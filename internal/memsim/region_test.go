package memsim

import (
	"fmt"
	"runtime"
	"testing"
)

// regionFixture builds a machine with one array per translation class:
// 4 KB local, 2 MB interleaved, 1 GB blocked and THP-backed blocked. Two
// fixtures built from one config have identical addresses, placements and
// footprints, and every array is warmed, so the only state a history of
// earlier regions can leave behind is in the machine's pooled threads.
func regionFixture(cfg MachineConfig) (*Machine, []*Array) {
	m := NewMachine(cfg)
	arrs := []*Array{
		m.MustAlloc("small", 1<<20, 8, AllocOpts{Policy: Local, PageSize: PageSmall}),
		m.MustAlloc("huge", 1<<22, 8, AllocOpts{Policy: Interleaved, PageSize: PageHuge}),
		m.MustAlloc("giant", 1<<33, 8, AllocOpts{Policy: Blocked, PageSize: PageGiant}),
		m.MustAlloc("thp", 1<<21, 8, AllocOpts{Policy: Blocked, PageSize: PageSmall, THP: true}),
	}
	for _, a := range arrs {
		a.Warm()
	}
	return m, arrs
}

// regionBody charges a pseudo-random access stream, keyed by salt and the
// thread ID, against every array: single reads (TLB, memo, migration and
// near-memory sampling), an expected-cost gather and a short scan. It
// starts and ends on element 0 of the first array, so a line memo that
// survived from an earlier region would turn the first read into an L1 hit.
func regionBody(arrs []*Array, salt uint64) func(th *Thread) {
	return func(th *Thread) {
		r := uint64(th.ID+1)*0x9E3779B97F4A7C15 ^ salt
		arrs[0].Read(th, 0)
		for _, a := range arrs {
			for i := 0; i < 32; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				a.Read(th, int64((r>>11)%uint64(a.Len())))
			}
			a.RandomN(th, 16, false)
			a.ReadRange(th, int64(th.ID)*512, int64(th.ID+1)*512)
		}
		th.Op(th.ID + 1)
		arrs[0].Read(th, 0)
	}
}

// TestRegionStatsIndependentOfPooledHistory checks that the pooled thread
// state is reset to exactly the state of fresh threads: a region's
// RegionStats (TLB hits and misses, page-walk time, elapsed time and every
// other counter) must not depend on which earlier regions, with other
// thread counts, pinned sockets and page sizes, ran on the machine first,
// nor on the worker count.
func TestRegionStatsIndependentOfPooledHistory(t *testing.T) {
	type region struct{ threads, pin int }
	run := func(m *Machine, arrs []*Array, r region, salt uint64) RegionStats {
		if r.pin >= 0 {
			return m.ParallelPinned(r.pin, r.threads, regionBody(arrs, salt))
		}
		return m.Parallel(r.threads, regionBody(arrs, salt))
	}
	configs := map[string]MachineConfig{
		"memory-mode-migration": NewMachineWithMode(MemoryMode, PageSmall, true),
		"dram":                  DRAMMachine(),
	}
	histories := map[string][]region{
		"all-96":           {{96, -1}},
		"pinned-then-few":  {{48, 1}, {2, -1}},
		"few-then-all":     {{3, -1}, {96, -1}, {1, -1}},
		"pinned-socket-0":  {{24, 0}, {24, 0}},
		"sequential-after": {{96, -1}, {1, -1}},
	}
	probes := []region{{8, -1}, {48, -1}, {96, -1}, {24, 1}}
	for cname, cfg := range configs {
		for _, probe := range probes {
			fm, farrs := regionFixture(cfg)
			want := run(fm, farrs, probe, 7)
			if want.Counters.TLBHits == 0 || want.Counters.TLBMisses == 0 || want.Counters.PageWalkNs == 0 {
				t.Fatalf("%s probe %+v charged no translations: %+v", cname, probe, want.Counters)
			}
			for hname, history := range histories {
				for _, procs := range []int{1, 3} {
					m, arrs := regionFixture(cfg)
					for i, r := range history {
						run(m, arrs, r, uint64(100+i))
					}
					prev := runtime.GOMAXPROCS(procs)
					got := run(m, arrs, probe, 7)
					runtime.GOMAXPROCS(prev)
					if got != want {
						t.Errorf("%s probe %+v after %s at GOMAXPROCS=%d:\n got  %+v\n want %+v",
							cname, probe, hname, procs, got, want)
					}
				}
			}
		}
	}
}

// TestParallelRegionAllocsBounded is the allocation gate for region
// set-up: once a machine's thread pool is warm, a region with a trivial
// body allocates at most a small constant, independent of its thread
// count (before pooling it allocated a Thread and a TLB per virtual
// thread).
func TestParallelRegionAllocsBounded(t *testing.T) {
	const maxAllocs = 8
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	m := NewMachine(OptaneMachine())
	body := func(th *Thread) { th.Op(1) }
	for _, threads := range []int{1, 8, 96} {
		m.Parallel(threads, body)
		allocs := testing.AllocsPerRun(50, func() { m.Parallel(threads, body) })
		if allocs > maxAllocs {
			t.Errorf("warm %d-thread region allocates %.1f objects, want <= %d", threads, allocs, maxAllocs)
		}
	}
}

// TestNestedRegionPanics pins the one-region-at-a-time invariant.
func TestNestedRegionPanics(t *testing.T) {
	m := NewMachine(DRAMMachine())
	defer func() {
		if recover() == nil {
			t.Fatal("nested region on one machine did not panic")
		}
		// The machine is usable again after the panicking region.
		if s := m.Parallel(4, func(th *Thread) { th.Op(1) }); s.Threads != 4 {
			t.Errorf("region after panic ran %d threads", s.Threads)
		}
	}()
	m.Sequential(func(th *Thread) { m.Sequential(func(*Thread) {}) })
}

// BenchmarkParallelRegion measures the host cost of one region: set-up,
// dispatch to the workers, the barrier merge, and (for the charged
// variants) a short access stream per virtual thread. Run with -benchmem.
func BenchmarkParallelRegion(b *testing.B) {
	for _, threads := range []int{1, 8, 96} {
		b.Run(fmt.Sprintf("empty/threads=%d", threads), func(b *testing.B) {
			m := NewMachine(OptaneMachine())
			body := func(th *Thread) { th.Op(1) }
			b.ReportAllocs()
			for b.Loop() {
				m.Parallel(threads, body)
			}
		})
		b.Run(fmt.Sprintf("charged/threads=%d", threads), func(b *testing.B) {
			m, arrs := regionFixture(OptaneMachine())
			body := regionBody(arrs, 1)
			b.ReportAllocs()
			for b.Loop() {
				m.Parallel(threads, body)
			}
		})
	}
}
