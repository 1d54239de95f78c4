package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/spilly-db/spilly"
)

const (
	numQueries = 22
	// refreshEvery makes every refreshEvery-th dashboard-mix op a refresh.
	refreshEvery = 40
	// zipfS is the skew of the dashboard-mix query popularity.
	zipfS = 1.1
	// rotateStep is how many ranks the popularity order moves per
	// dashboard-mix epoch; it is coprime with 22, so consecutive epochs
	// spread each query over head and tail ranks.
	rotateStep = 7
)

// workload is one engine configuration plus the closed-loop op stream run
// against it. README.md records why each was chosen.
type workload struct {
	name    string
	sf      float64
	onArray bool // tables stored on the table array (external scans)
	clients int
	cfg     spilly.Config
	// mix selects the dashboard op stream (Zipf queries plus refreshes)
	// instead of seeded sweep rounds over all 22 queries.
	mix bool
}

var workloads = map[string]workload{
	"inmem-sweep": {
		name:    "inmem-sweep",
		sf:      0.05,
		clients: 1,
		cfg:     spilly.Config{Workers: 2},
	},
	"spill-sweep": {
		name:    "spill-sweep",
		sf:      0.05,
		onArray: true,
		clients: 1,
		cfg:     spilly.Config{Workers: 2, MemoryBudget: 1 << 20, Compression: true},
	},
	"dashboard-mix": {
		name:    "dashboard-mix",
		sf:      0.05,
		onArray: true,
		clients: 2,
		mix:     true,
		cfg: spilly.Config{
			Workers:          2,
			MemoryBudget:     2 << 20,
			Compression:      true,
			ResultCacheBytes: 4 << 20,
			CacheBytes:       8 << 20,
			Device:           spilly.DefaultDevice.Scaled(0.25),
			TableDevices:     2,
			SpillDevices:     2,
		},
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// op is one closed-loop operation: a TPC-H query, or a refresh (q == 0)
// that re-registers and re-stores supplier with identical content.
type op struct {
	seq int64
	q   int
}

// stream hands ops to the clients in one seeded order, whichever client
// asks. It stops only between rounds (a sweep round or a mix epoch), so a
// run's work does not depend on where the clock stopped.
type stream struct {
	mu     sync.Mutex
	round  func(i int) []int // the queries of round i (0 = refresh)
	cur    []int
	rounds int
	n      int64
}

func newStream(wl workload, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	if wl.mix {
		repeats := zipfQuota(refreshEvery - 1 - numQueries)
		return &stream{round: func(i int) []int { return mixEpoch(repeats, i, rng) }}
	}
	return &stream{round: func(int) []int {
		qs := rng.Perm(numQueries)
		for i := range qs {
			qs[i]++
		}
		return qs
	}}
}

// mixEpoch returns dashboard-mix epoch e: every query once plus the Zipf
// repeats of the popular ones, in seeded order, then a refresh. Popularity
// rotates by rotateStep ranks per epoch on a fixed schedule, so every query
// is hot in some epochs and the hot sets a run covers do not depend on the
// seed.
func mixEpoch(repeats []int, e int, rng *rand.Rand) []int {
	ops := make([]int, 0, refreshEvery)
	for rank, n := range repeats {
		q := (rank+rotateStep*e)%numQueries + 1
		for i := 0; i <= n; i++ {
			ops = append(ops, q)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return append(ops, 0)
}

// zipfQuota splits n ops over the 22 popularity ranks in proportion to
// Zipf(zipfS) weights, rounding by largest remainder, so every epoch has
// the same count per rank instead of a sampled one.
func zipfQuota(n int) []int {
	w := make([]float64, numQueries)
	sum := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		sum += w[r]
	}
	quota := make([]int, numQueries)
	order := make([]int, numQueries)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / sum
		quota[r] = int(exact)
		left -= quota[r]
		w[r] = exact - float64(quota[r])
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return w[order[i]] > w[order[j]] })
	for _, r := range order[:left] {
		quota[r]++
	}
	return quota
}

// take returns the next op, or false once stop holds between rounds.
func (s *stream) take(stop func(done int64) bool) (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cur) == 0 {
		if stop(s.n) {
			return op{}, false
		}
		s.cur = s.round(s.rounds)
		s.rounds++
	}
	q := s.cur[0]
	s.cur = s.cur[1:]
	s.n++
	return op{seq: s.n, q: q}, true
}
