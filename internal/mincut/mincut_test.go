package mincut

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// diamond builds: s(0) -> a(1) -> t(3), s -> b(2) -> t.
func diamond() [][]int {
	return [][]int{{1, 2}, {3}, {3}, {}}
}

func TestVertexCutDiamond(t *testing.T) {
	adj := diamond()
	cut, total, err := VertexCut(adj, []int64{1, 1, 1, 1}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(cut) != 2 {
		t.Fatalf("cut = %v (weight %d), want both middle nodes", cut, total)
	}
	sort.Ints(cut)
	if cut[0] != 1 || cut[1] != 2 {
		t.Errorf("cut = %v, want [1 2]", cut)
	}
}

func TestVertexCutChain(t *testing.T) {
	// s -> a -> b -> t: min vertex cut is one node.
	adj := [][]int{{1}, {2}, {3}, {}}
	cut, total, err := VertexCut(adj, []int64{1, 1, 1, 1}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || len(cut) != 1 {
		t.Fatalf("cut = %v (weight %d), want single node", cut, total)
	}
}

func TestVertexCutWeighted(t *testing.T) {
	// Two parallel 2-node paths; weights force the cut through the cheap
	// pair even though both cuts have 2 nodes.
	// s(0) -> a(1) -> b(2) -> t(5); s -> c(3) -> d(4) -> t.
	adj := [][]int{{1, 3}, {2}, {5}, {4}, {5}, {}}
	weights := []int64{1, 100, 100, 1, 1, 1}
	cut, total, err := VertexCut(adj, weights, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Min weight: cut a-or-b from first path (100) + c-or-d (1) = 101.
	if total != 101 {
		t.Fatalf("total = %d, want 101 (cut %v)", total, cut)
	}
}

func TestVertexCutUnreachable(t *testing.T) {
	adj := [][]int{{1}, {}, {3}, {}}
	cut, total, err := VertexCut(adj, []int64{1, 1, 1, 1}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 || len(cut) != 0 {
		t.Errorf("disconnected graph: cut = %v weight %d, want empty", cut, total)
	}
}

func TestVertexCutSourceAdjacentSink(t *testing.T) {
	adj := [][]int{{1}, {}}
	if _, _, err := VertexCut(adj, []int64{1, 1}, 0, 1); err == nil {
		t.Error("direct source->sink edge has no finite vertex cut; want error")
	}
}

func TestVertexCutValidation(t *testing.T) {
	adj := diamond()
	if _, _, err := VertexCut(adj, []int64{1}, 0, 3); err == nil {
		t.Error("weight length mismatch must error")
	}
	if _, _, err := VertexCut(adj, []int64{1, 1, 1, 1}, 0, 9); err == nil {
		t.Error("sink out of range must error")
	}
	if _, _, err := VertexCut(adj, []int64{1, 1, 1, 1}, 2, 2); err == nil {
		t.Error("source == sink must error")
	}
}

// TestVertexCutIsActuallyACut property-checks on random DAGs that the
// returned set disconnects source from sink and is minimal in weight
// against brute force.
func TestVertexCutIsActuallyACut(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5) // 4..8 nodes, node 0 = s, n-1 = t
		adj := make([][]int, n)
		for v := 0; v < n-1; v++ {
			for w := v + 1; w < n; w++ {
				if v == 0 && w == n-1 {
					continue // keep a finite cut possible
				}
				if r.Intn(3) > 0 {
					adj[v] = append(adj[v], w)
				}
			}
		}
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(1 + r.Intn(4))
		}
		cut, total, err := VertexCut(adj, weights, 0, n-1)
		if err != nil {
			return false
		}
		// Check the cut disconnects.
		if pathAvoiding(adj, 0, n-1, cut) {
			return false
		}
		// Check optimality by brute force over subsets of middle nodes.
		best := bruteForceCut(adj, weights, 0, n-1)
		return total == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolverReuseMatchesFresh runs one Solver over 1000 seeded random
// digraphs (cycles included) whose sizes shrink and grow from one to the
// next, so every scratch array is at some point longer than the network
// it serves. Each cut must equal a fresh solver's, member for member,
// and the brute-force optimum: anything a previous network left behind
// shows up as a difference.
func TestSolverReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var reused Solver
	for i := 0; i < 1000; i++ {
		n := 3 + r.Intn(8) // 3..10 nodes, node 0 = s, n-1 = t
		if i%7 == 0 {
			n = 3 + r.Intn(3) // a small one right after a large one
		}
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if v == 0 && w == n-1 {
					continue // keep a finite cut possible
				}
				if r.Intn(3) == 0 {
					adj[v] = append(adj[v], w) // self-loops and back edges too
				}
			}
		}
		weights := make([]int64, n)
		for v := range weights {
			weights[v] = int64(1 + r.Intn(4))
		}
		cut, total, err := reused.VertexCut(adj, weights, 0, n-1)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		fcut, ftotal, err := VertexCut(adj, weights, 0, n-1)
		if err != nil {
			t.Fatalf("graph %d, fresh solver: %v", i, err)
		}
		if total != ftotal || !reflect.DeepEqual(cut, fcut) {
			t.Fatalf("graph %d (%d nodes): reused solver cut %v weight %d, fresh solver %v weight %d", i, n, cut, total, fcut, ftotal)
		}
		if best := bruteForceCut(adj, weights, 0, n-1); total != best {
			t.Fatalf("graph %d (%d nodes): cut weight %d, brute force %d", i, n, total, best)
		}
		if pathAvoiding(adj, 0, n-1, cut) {
			t.Fatalf("graph %d: cut %v does not disconnect", i, cut)
		}
	}
}

func pathAvoiding(adj [][]int, s, t int, cut []int) bool {
	blocked := map[int]bool{}
	for _, v := range cut {
		blocked[v] = true
	}
	seen := make([]bool, len(adj))
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == t {
			return true
		}
		for _, w := range adj[v] {
			if !seen[w] && !blocked[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func bruteForceCut(adj [][]int, weights []int64, s, t int) int64 {
	n := len(adj)
	if !pathAvoiding(adj, s, t, nil) {
		return 0
	}
	var middles []int
	for v := 0; v < n; v++ {
		if v != s && v != t {
			middles = append(middles, v)
		}
	}
	best := Inf
	for mask := 0; mask < 1<<len(middles); mask++ {
		var cut []int
		var w int64
		for i, v := range middles {
			if mask&(1<<i) != 0 {
				cut = append(cut, v)
				w += weights[v]
			}
		}
		if w < best && !pathAvoiding(adj, s, t, cut) {
			best = w
		}
	}
	return best
}

func TestSolveANDORSimple(t *testing.T) {
	// One zone (0) with two hosts (0, 1), both grounded.
	in := ANDORInput{
		HostWeight: []int64{3, 5},
		ZoneNS:     [][]int32{{0, 1}},
		HostChain:  [][]int32{nil, nil},
	}
	res := SolveANDOR(in)
	if res.KillZone[0] != 8 {
		t.Errorf("killZone = %d, want 8", res.KillZone[0])
	}
	if got := res.KillName([]int32{0}); got != 8 {
		t.Errorf("KillName = %d, want 8", got)
	}
}

func TestSolveANDORHijackCheaperThanCompromise(t *testing.T) {
	// Zone 0 (the name's zone): hosts 0,1 with weight 100 each, both of
	// whose chains run through zone 1; zone 1 has a single cheap host 2.
	// Killing host 2 (cost 1) hijacks zone 1, which kills hosts 0 and 1's
	// address resolution: total 1, far cheaper than 200.
	in := ANDORInput{
		HostWeight: []int64{100, 100, 1},
		ZoneNS:     [][]int32{{0, 1}, {2}},
		HostChain:  [][]int32{{1}, {1}, nil},
	}
	res := SolveANDOR(in)
	if res.KillHost[0] != 1 || res.KillHost[1] != 1 {
		t.Errorf("killHost = %v, want hijack via zone 1 at cost 1", res.KillHost)
	}
	if res.KillZone[0] != 2 {
		t.Errorf("killZone[0] = %d, want 2", res.KillZone[0])
	}
	if got := res.KillName([]int32{0}); got != 2 {
		t.Errorf("KillName = %d, want 2", got)
	}
	// A chain passing through both zones: zone 1 alone costs 1.
	if got := res.KillName([]int32{0, 1}); got != 1 {
		t.Errorf("KillName over both zones = %d, want 1", got)
	}
}

func TestSolveANDORPureCycleIsFree(t *testing.T) {
	// Mutual glue-less dependency with no grounding anywhere: neither
	// host's address can EVER be resolved (no base case), so both zones
	// are dead without any attacker effort — kill cost zero.
	in := ANDORInput{
		HostWeight: []int64{4, 6},
		ZoneNS:     [][]int32{{0}, {1}},
		HostChain:  [][]int32{{1}, {0}},
	}
	res := SolveANDOR(in)
	if res.KillHost[0] != 0 || res.KillHost[1] != 0 {
		t.Errorf("killHost = %v, want zeros: a glue-less cycle is inherently unusable", res.KillHost)
	}
	if res.KillZone[0] != 0 || res.KillZone[1] != 0 {
		t.Errorf("killZone = %v, want zeros", res.KillZone)
	}
}

func TestSolveANDORGroundedCycle(t *testing.T) {
	// The same mutual dependency, but host 1 is grounded (glue): now the
	// cycle is resolvable, and killing it costs real compromises.
	in := ANDORInput{
		HostWeight: []int64{4, 6},
		ZoneNS:     [][]int32{{0}, {1}},
		HostChain:  [][]int32{{1}, {0}},
		Grounded:   []bool{false, true},
	}
	res := SolveANDOR(in)
	// killHost(1) = 6 (grounded). killZone(1) = 6.
	// killHost(0) = min(4, killZone(1)=6) = 4. killZone(0) = 4.
	if res.KillHost[1] != 6 {
		t.Errorf("killHost[1] = %d, want 6", res.KillHost[1])
	}
	if res.KillHost[0] != 4 {
		t.Errorf("killHost[0] = %d, want 4", res.KillHost[0])
	}
	if res.KillZone[0] != 4 {
		t.Errorf("killZone[0] = %d, want 4", res.KillZone[0])
	}
}

func TestSolveANDORGroundedFlag(t *testing.T) {
	// Host 0 has a chain through zone 1 but is marked grounded (a TLD
	// server): the chain must be ignored.
	in := ANDORInput{
		HostWeight: []int64{7, 1},
		ZoneNS:     [][]int32{{0}, {1}},
		HostChain:  [][]int32{{1}, nil},
		Grounded:   []bool{true, false},
	}
	res := SolveANDOR(in)
	if res.KillHost[0] != 7 {
		t.Errorf("grounded host killHost = %d, want its direct weight 7", res.KillHost[0])
	}
}

func TestSolveANDOREmptyZone(t *testing.T) {
	// A zone with no nameservers is already dead (cost 0); any host
	// chaining through it is hijackable for free.
	in := ANDORInput{
		HostWeight: []int64{9},
		ZoneNS:     [][]int32{{0}, {}},
		HostChain:  [][]int32{{1}},
	}
	res := SolveANDOR(in)
	if res.KillZone[1] != 0 {
		t.Errorf("empty zone kill = %d, want 0", res.KillZone[1])
	}
	if res.KillHost[0] != 0 {
		t.Errorf("killHost = %d, want 0 via dead zone", res.KillHost[0])
	}
}
