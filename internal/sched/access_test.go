package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// naiveAccessMap is the reference AccessMap: nested maps keyed by site
// and by thread name, every query answered by walking them.
type naiveAccessMap struct {
	m      map[Site]map[uint64]accessMode
	byAddr map[uint64]map[string]accessMode // addr -> thread -> mode
}

func newNaiveAccessMap() *naiveAccessMap {
	return &naiveAccessMap{
		m:      make(map[Site]map[uint64]accessMode),
		byAddr: make(map[uint64]map[string]accessMode),
	}
}

func (am *naiveAccessMap) Record(s Site, addr uint64, write bool) {
	byAddr := am.m[s]
	if byAddr == nil {
		byAddr = make(map[uint64]accessMode)
		am.m[s] = byAddr
	}
	mode := modeOf(write)
	byAddr[addr] |= mode
	byThread := am.byAddr[addr]
	if byThread == nil {
		byThread = make(map[string]accessMode)
		am.byAddr[addr] = byThread
	}
	byThread[s.Thread] |= mode
}

func (am *naiveAccessMap) Has(s Site, addr uint64, write bool) bool {
	return am.m[s][addr]&modeOf(write) != 0
}

func (am *naiveAccessMap) ConflictsAt(thread string, addr uint64, write bool) bool {
	for other, mode := range am.byAddr[addr] {
		if other == thread {
			continue
		}
		if write || mode&modeWrite != 0 {
			return true
		}
	}
	return false
}

// sortedSites returns the known sites by thread name, then instruction.
func (am *naiveAccessMap) sortedSites() []Site {
	out := make([]Site, 0, len(am.m))
	for s := range am.m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thread != out[j].Thread {
			return out[i].Thread < out[j].Thread
		}
		return out[i].Instr < out[j].Instr
	})
	return out
}

func (am *naiveAccessMap) Export() []AccessExport {
	var out []AccessExport
	for _, s := range am.sortedSites() {
		byAddr := am.m[s]
		addrs := make([]uint64, 0, len(byAddr))
		for a := range byAddr {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			mode := byAddr[a]
			out = append(out, AccessExport{
				Thread: s.Thread,
				Instr:  s.Instr,
				Addr:   a,
				Read:   mode&modeRead != 0,
				Write:  mode&modeWrite != 0,
			})
		}
	}
	return out
}

// threadNames returns n thread names, many of them prefixes of others
// ("T1", "T10", "T100", "kworker:x", "kworker:x1", ...).
func threadNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = fmt.Sprintf("T%d", i+1)
		case 1:
			out[i] = fmt.Sprintf("kworker:x%d", i/3)
		default:
			out[i] = fmt.Sprintf("kworker:x%d0", i/3)
		}
	}
	out[0] = "kworker:x" // a prefix of every kworker name
	return out
}

// compareAccessMaps checks every query of got against the reference.
func compareAccessMaps(t *testing.T, got *AccessMap, want *naiveAccessMap, threads []string, rng *rand.Rand, ids []kir.InstrID, nAddr int) {
	t.Helper()
	probe := append(slices.Clone(threads), "never-seen", "T", "")
	sites := want.sortedSites()
	if got.NumSites() != len(sites) {
		t.Fatalf("NumSites = %d, want %d", got.NumSites(), len(sites))
	}
	for addr := uint64(0); addr <= uint64(nAddr); addr++ { // nAddr itself is never recorded
		for _, th := range probe {
			for _, w := range []bool{false, true} {
				if g, x := got.ConflictsAt(th, addr, w), want.ConflictsAt(th, addr, w); g != x {
					t.Fatalf("ConflictsAt(%q, %d, %v) = %v, want %v", th, addr, w, g, x)
				}
			}
		}
	}
	// Probe the recorded IDs, their neighbours and IDs no site has.
	probeIDs := []kir.InstrID{kir.NoInstr, slices.Max(ids) + 1, slices.Max(ids) + 1000}
	for _, id := range ids {
		probeIDs = append(probeIDs, id, id+1)
	}
	for i := 0; i < 50; i++ {
		a := Site{Thread: probe[rng.Intn(len(probe))], Instr: probeIDs[rng.Intn(len(probeIDs))]}
		if len(sites) > 0 && i%2 == 0 {
			a = sites[rng.Intn(len(sites))]
		}
		addr := uint64(rng.Intn(nAddr + 1))
		for _, w := range []bool{false, true} {
			if g, x := got.Has(a, addr, w), want.Has(a, addr, w); g != x {
				t.Fatalf("Has(%v, %d, %v) = %v, want %v", a, addr, w, g, x)
			}
		}
	}
	exp := want.Export()
	if g := got.Export(); !reflect.DeepEqual(g, exp) {
		t.Fatalf("Export differs from the reference\n got: %v\nwant: %v", g, exp)
	}
	if g := ImportAccessMap(exp).Export(); !reflect.DeepEqual(g, exp) {
		t.Fatal("ImportAccessMap does not round-trip")
	}
}

// TestAccessMapMatchesNaive drives the interned map and the nested-map
// reference with the same random access streams, over 1 to 100 threads,
// spawned-thread names, and dense, sparse and large instruction IDs
// (the map indexes sites by ID), and checks that every query agrees
// along the way; a log folded into a map agrees too.
func TestAccessMapMatchesNaive(t *testing.T) {
	dense := make([]kir.InstrID, 12)
	for i := range dense {
		dense[i] = kir.InstrID(i)
	}
	sparse := []kir.InstrID{0, 3, 64, 65, 1000, 4095}
	large := []kir.InstrID{1 << 16, 1<<16 + 1, 1<<16 + 511, 90001}
	spawned := []string{"A", "kworker:A2", "rcu:K1", "kworker:B7", "rcu:R1", "kworker:A"}
	for _, c := range []struct {
		name    string
		threads []string
		ids     []kir.InstrID
	}{
		{"threads=1", threadNames(1), dense},
		{"threads=2", threadNames(2), dense},
		{"threads=3", threadNames(3), dense},
		{"threads=7", threadNames(7), dense},
		{"threads=30", threadNames(30), dense},
		{"threads=100", threadNames(100), dense},
		{"sparse/threads=7", threadNames(7), sparse},
		{"large/threads=3", threadNames(3), large},
		{"spawned", spawned, dense},
		{"spawned/sparse", spawned, sparse},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.threads))))
			nAddr := 16
			got, want := NewAccessMap(), newNaiveAccessMap()
			var log AccessLog
			compareAccessMaps(t, got, want, c.threads, rng, c.ids, nAddr)
			for i := 1; i <= 600; i++ {
				s := Site{Thread: c.threads[rng.Intn(len(c.threads))], Instr: c.ids[rng.Intn(len(c.ids))]}
				addr, write := uint64(rng.Intn(nAddr)), rng.Intn(3) == 0
				got.Record(s, addr, write)
				want.Record(s, addr, write)
				log.Add(s, addr, write)
				if i%100 == 0 {
					compareAccessMaps(t, got, want, c.threads, rng, c.ids, nAddr)
				}
			}
			folded := NewAccessMap()
			folded.Fold(log)
			compareAccessMaps(t, folded, want, c.threads, rng, c.ids, nAddr)
		})
	}
}

// twoAddrProg: thread A's one store site writes both words of arr
// (through a helper it calls twice) and then fails; thread B's one load
// site reads both words the same way. Run B then A, the site pair races
// on two addresses; run A then B, B never starts and its loads are
// phantom.
func twoAddrProg(t testing.TB) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Global("arr", 2)
	b.VarAddrOf("p", "arr")
	wr := b.Func("wr")
	wr.Store(kir.Ind(kir.R1, 0), kir.Imm(1)).L("A1")
	wr.Ret()
	rd := b.Func("rd")
	rd.Load(kir.R2, kir.Ind(kir.R1, 0)).L("B1")
	rd.Ret()
	for _, fn := range []struct{ name, helper string }{{"fa", "wr"}, {"fb", "rd"}} {
		f := b.Func(fn.name)
		f.Load(kir.R1, kir.G("p"))
		f.Call(fn.helper)
		f.Add(kir.R1, kir.Imm(1))
		f.Call(fn.helper)
		if fn.name == "fa" {
			f.BugOn(kir.Imm(1)).L("A2")
		}
		f.Ret()
	}
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRaceDedupeIndependentOfMapOrder: when one site pair races on two
// addresses, the race deduplication keeps is the one on the lower
// address — in every repetition, whatever order Go's maps iterate in —
// for observed and for phantom races alike.
func TestRaceDedupeIndependentOfMapOrder(t *testing.T) {
	prog := twoAddrProg(t)
	base, _ := machine(t, prog).Space().GlobalAddr("arr")
	var firstReal, firstPhantom []Race
	for rep := 0; rep < 50; rep++ {
		m := machine(t, prog)
		init := m.Snapshot()
		enf := NewEnforcer(m)
		ba, err := enf.Run(Serial("B", "A"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		m.Restore(init)
		ab, err := enf.Run(Serial("A", "B"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Failed() || ab.Threads["B"] == kvm.Done {
			t.Fatalf("A then B: failure %v, B %v; want A to fail before B runs", ab.Failure, ab.Threads["B"])
		}
		am := NewAccessMap()
		recordRun(am, ba)
		real, phantom := ExtractRaces(ba), PhantomRaces(ab, am)
		if rep == 0 {
			firstReal, firstPhantom = real, phantom
			continue
		}
		if !reflect.DeepEqual(real, firstReal) {
			t.Fatalf("repetition %d: races %v, first repetition %v", rep, real, firstReal)
		}
		if !reflect.DeepEqual(phantom, firstPhantom) {
			t.Fatalf("repetition %d: phantom races %v, first repetition %v", rep, phantom, firstPhantom)
		}
	}
	for _, c := range []struct {
		races         []Race
		first, second string
	}{{firstReal, "B1", "A1"}, {firstPhantom, "A1", "B1"}} {
		var found bool
		for _, r := range c.races {
			if prog.InstrName(r.First.Instr) == c.first && prog.InstrName(r.Second.Instr) == c.second {
				found = true
				if r.Addr != base {
					t.Errorf("%s => %s kept on %#x, want arr[0] at %#x", c.first, c.second, r.Addr, base)
				}
			}
		}
		if !found {
			t.Errorf("no %s => %s race in %v", c.first, c.second, c.races)
		}
	}
}

// BenchmarkAccessMapFold measures one phase merge: folding a unit log,
// duplicates included, into a fresh map.
func BenchmarkAccessMapFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	threads := []string{"A", "B", "kworker:x", "rcu"}
	var log AccessLog
	for i := 0; i < 400; i++ {
		s := Site{Thread: threads[rng.Intn(len(threads))], Instr: kir.InstrID(rng.Intn(64))}
		log.Add(s, uint64(0x1000+rng.Intn(32)), rng.Intn(3) == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am := NewAccessMap()
		am.Fold(log)
		if am.NumSites() == 0 {
			b.Fatal("empty map")
		}
	}
}
