// Package app exercises nondetflow end to end: direct source→sink flows,
// sort kills, same-package summaries (via a local helper), and the
// cross-package fact path through route.Publish.
package app

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"route"
	"sympack/internal/upcxx"
)

// gather launders map iteration order into a published array.
func gather(r *upcxx.Rank, parts map[int][]float64) {
	var buf []float64
	for _, p := range parts {
		buf = append(buf, p...)
	}
	r.NewArrayFrom(buf) // want "map iteration order\\) flows into a wire-visible array initialization"
}

// gatherSorted is the blessed shape: the key order is made explicit
// before the payload is assembled, so the taint dies at the sort.
func gatherSorted(r *upcxx.Rank, parts map[int][]float64) {
	var keys []int
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var buf []float64
	for _, k := range keys {
		buf = append(buf, parts[k]...)
	}
	r.NewArrayFrom(buf)
}

// stamp puts a wall-clock-derived value on the wire.
func stamp(r *upcxx.Rank) {
	jitter := float64(time.Now().UnixNano() % 3)
	r.NewArrayFrom([]float64{jitter}) // want "wall clock \\(time\\.Now\\)\\) flows into a wire-visible array initialization"
}

// scatter seeds a wire-visible array from the global rand stream.
func scatter(r *upcxx.Rank) []float64 {
	v := rand.Float64()
	return r.NewArrayFrom([]float64{v}) // want "unseeded math/rand \\(Float64\\)\\) flows into a wire-visible array initialization"
}

type pq []string

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i] < q[j] }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)         { *q = append(*q, x.(string)) }
func (q *pq) Pop() any           { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }

// enqueue keys a scheduling queue on a pointer address.
func enqueue(q *pq, r *upcxx.Rank) {
	key := fmt.Sprintf("%p", r)
	heap.Push(q, key) // want "pointer formatting \\(%p\\)\\) flows into a scheduling-queue element"
}

// send is a local helper whose parameter reaches the wire; callers with
// tainted arguments are reported at the call site with a via chain.
func send(r *upcxx.Rank, xs []float64) {
	r.NewArrayFrom(xs)
}

func relay(r *upcxx.Rank, parts map[int][]float64) {
	var buf []float64
	for _, p := range parts {
		buf = append(buf, p...)
	}
	send(r, buf) // want "map iteration order\\) flows into a wire-visible array initialization via app\\.send"
}

// broadcast reaches the sink only through route.Publish's exported
// summary: the flow spans a package boundary.
func broadcast(r *upcxx.Rank, weights map[string]float64) {
	var vals []float64
	for _, w := range weights {
		vals = append(vals, w)
	}
	route.Publish(r, vals) // want "map iteration order\\) flows into a wire-visible array initialization via route\\.Publish"
}

// pick routes a signal to a map-order-dependent rank.
func pick(r *upcxx.Rank, owners map[int]bool) {
	target := 0
	for o := range owners {
		target = o
		break
	}
	r.Signal(target, upcxx.Msg{ID: 1}) // want "map iteration order\\) flows into an RPC target rank"
}

// announceFirst names a map-order-dependent item in a signal.
func announceFirst(r *upcxx.Rank, items map[int32]bool) {
	var id int32
	for it := range items {
		id = it
		break
	}
	r.Signal(1, upcxx.Msg{Kind: 0, ID: id}) // want "map iteration order\\) flows into a signal payload"
}

// seeded shows the constructor exclusion: an explicitly seeded generator
// is reproducible, so nothing fires.
func seeded(r *upcxx.Rank) {
	rng := rand.New(rand.NewSource(7))
	r.NewArrayFrom([]float64{rng.NormFloat64()})
}

// reseeded launders the clock through a generator seed: the wall-clock
// taint rides through NewSource and New into every draw.
func reseeded(r *upcxx.Rank) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	r.NewArrayFrom([]float64{rng.NormFloat64()}) // want "wall clock \\(time\\.Now\\)\\) flows into a wire-visible array initialization"
}

// since returns a source call's result directly, the shape of
// trace.Recorder.Begin: its summary must carry the clock to callers.
func since(t0 time.Time) time.Duration { return time.Since(t0) }

func stampSince(r *upcxx.Rank, t0 time.Time) {
	r.NewArrayFrom([]float64{float64(since(t0))}) // want "wall clock \\(time\\.Since\\)\\) flows into a wire-visible array initialization"
}

// drawn binds a source call's results one by one: each carries the source.
func drawn(r *upcxx.Rank, buf []byte) {
	n, _ := rand.Read(buf)
	r.NewArrayFrom([]float64{float64(n)}) // want "unseeded math/rand \\(Read\\)\\) flows into a wire-visible array initialization"
}

// clean shows a kill on a parameter: after the sort the slice order is
// explicit, so not even a conditional (summary) sink survives.
func clean(r *upcxx.Rank, data []float64) {
	sort.Float64s(data)
	r.NewArrayFrom(data)
}

// zero is a local helper whose result carries none of its argument: its
// summary is empty, and an empty local summary launders nothing.
func zero(x float64) float64 { return 0 }

// zeroed publishes only zero's constant result, so map order never
// reaches the array.
func zeroed(r *upcxx.Rank, m map[int]float64) {
	for _, v := range m {
		r.NewArrayFrom([]float64{zero(v)})
	}
}

func use(r *upcxx.Rank, q *pq) {
	gather(r, nil)
	gatherSorted(r, nil)
	stamp(r)
	_ = scatter(r)
	seeded(r)
	reseeded(r)
	enqueue(q, r)
	relay(r, nil)
	broadcast(r, nil)
	pick(r, nil)
	clean(r, nil)
	zeroed(r, nil)
}
