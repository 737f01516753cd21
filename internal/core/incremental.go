package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/parallel"
	"accpar/internal/tensor"
)

// This file implements the retained planning engine behind incremental
// replanning and design-space sweeps: an Engine retains one planner's
// dependency-tracked search state — the subproblem memo, the hardware
// digest index, a stale-re-costing memo and whole plans keyed by tree
// digest — across calls, so responding to a degradation re-solves only
// the subproblems the fault actually touched, and a sweep solves each
// subtree its candidate fleets share once. Everything is
// content-addressed, which splits correctness from retention cleanly:
//
//   - correctness: a retained entry can only be hit by a subproblem with
//     byte-identical inputs, so incremental replans are byte-identical
//     to a cold full search on the degraded spec, no matter what the
//     retention policy kept or dropped — including after aborted calls,
//     which never publish partial entries;
//   - retention (bounded engines): each entry's recorded dependency set
//     (the spec fingerprints of its hardware subtree) is walked when
//     degraded hardware leaves the recent working set, invalidating
//     exactly the dependent subtree of subproblems; an epoch backstop
//     bounds what reachable hardware can accumulate.

const (
	// defaultRecentTrees bounds the hardware trees (by content digest) an
	// engine keeps warm: retained whole plans and the reachable-spec set
	// for dependency invalidation both follow this working set.
	defaultRecentTrees = 32
	// defaultMemoCap is the entry-count watermark above which the epoch
	// backstop prunes memo entries not served recently.
	defaultMemoCap = 1 << 15
	// epochKeepWindow is how many engine calls back the backstop keeps.
	epochKeepWindow = 8
)

// ReplanStats reports what one incremental replanning call did: how
// much retained state it served, how much it invalidated, and how much
// it genuinely re-solved.
type ReplanStats struct {
	// IncrementalHits counts subproblems served from retained state: the
	// dependency-tracked memo, the stale-re-costing memo, the shared
	// cross-run cache, whole retained plans, and untouched-hardware
	// subtree reuse.
	IncrementalHits int64 `json:"incremental_hits"`
	// Invalidated counts retained entries dropped before this call by the
	// dependency walk (hardware left the working set) or the epoch
	// backstop.
	Invalidated int64 `json:"invalidated"`
	// Expanded counts subproblems solved from scratch.
	Expanded int64 `json:"expanded"`
	// StaleReused counts stale-pass nodes cloned directly from the
	// pristine plan because the fault did not touch their hardware.
	StaleReused int64 `json:"stale_reused"`
	// Seconds is the call's wall-clock duration.
	Seconds float64 `json:"seconds"`
}

// Add accumulates other into s (Seconds sums; portfolio callers report
// the aggregate).
func (s *ReplanStats) Add(other ReplanStats) {
	s.IncrementalHits += other.IncrementalHits
	s.Invalidated += other.Invalidated
	s.Expanded += other.Expanded
	s.StaleReused += other.StaleReused
	s.Seconds += other.Seconds
}

// replanStats is the per-call atomic collector behind ReplanStats;
// concurrent search workers of one call share it.
type replanStats struct {
	hits        atomic.Int64
	expanded    atomic.Int64
	staleReused atomic.Int64
}

func (rs *replanStats) snapshot(invalidated int64, d time.Duration) ReplanStats {
	return ReplanStats{
		IncrementalHits: rs.hits.Load(),
		Invalidated:     invalidated,
		Expanded:        rs.expanded.Load(),
		StaleReused:     rs.staleReused.Load(),
		Seconds:         d.Seconds(),
	}
}

// noteStaleReuse records an untouched-hardware stale-pass reuse.
func (p *planner) noteStaleReuse() {
	if p.rs != nil {
		p.rs.staleReused.Add(1)
		obsReplanHits.Inc()
	}
}

// retainedPlan is a fully solved plan kept by digest.
type retainedPlan struct {
	plan *Plan
	// digests maps each plan node to a digest of its decision context:
	// the path of (side, α, types) choices from the root — which pins the
	// node's effective dims, since the root dims are fixed per engine —
	// plus the decision subtree below it. Two nodes with equal digests
	// re-cost identically on equal hardware. Built on first use: most
	// retained plans are never re-costed.
	once    sync.Once
	digests map[*PlanNode]uint64
}

func (rp *retainedPlan) decisions() map[*PlanNode]uint64 {
	rp.once.Do(func() { rp.digests = planDecisionDigests(rp.plan) })
	return rp.digests
}

type recentTree struct {
	digest [16]byte
	specs  []uint64
	root   *hardware.Tree
}

// Engine is the retained planner: one (network, options) search whose
// dependency-tracked state — the subproblem memo, the hardware digest
// index, a stale-re-costing memo and whole plans keyed by tree digest —
// outlives individual calls. PlanCtx partitions a tree, ReplanCtx
// responds to a degradation and LowerBound bounds any plan's makespan.
// It is safe for concurrent use; every call is byte-identical to the
// equivalent cold search, so the engine affects latency only, never
// plans.
//
// The owner picks the retention policy at construction. NewEngine (and
// the Engines registry a Session keeps) serves a long-lived process: a
// bounded working set of recent trees, dependency invalidation when a
// tree leaves it, and an epoch backstop on the memo size.
// NewSweepPortfolio serves one design-space sweep: its engines retain
// everything until the sweep discards them, keep no replan statistics,
// and count memo hits on entries another candidate left behind as
// cross-fleet amortization (core.memo_cross_fleet_hits). A sweep engine
// reads retained whole plans only for ReplanCtx's pristine plan; every
// other search goes through the memo, so a candidate repeating earlier
// hardware shows up as a cross-fleet root hit.
type Engine struct {
	mu   sync.Mutex
	base *planner
	// sweep selects the retain-everything policy of NewSweepPortfolio.
	sweep bool
	// epoch numbers engine calls; memo entries are stamped with the epoch
	// that last served them (the retention backstop's clock, and the
	// sweep's cross-fleet marker).
	epoch atomic.Int64
	// bound is built on first LowerBound: only sweeps prune, and a
	// registry lookup constructs a candidate engine per call.
	boundOnce sync.Once
	bound     boundModel
	// stale memoizes stale re-costings under (hardware digest, decision
	// digest) keys; see staleWalk.
	stale *planMemo
	// plans retains whole solved plans by tree digest; under the bounded
	// policy recent is the MRU-first working set of tree digests that
	// bounds both plans and the reachable-spec set for dependency
	// invalidation.
	plans     map[[16]byte]*retainedPlan
	recent    []recentTree
	recentCap int
	memoCap   int
	gcNeeded  bool
}

// NewEngine returns a bounded-retention engine for the network and
// options. The options' Cache, if set, is consulted and fed as usual —
// the engine's retained memo sits in front of it, the dependency graph
// under the existing plan cache.
func NewEngine(net *dnn.Network, opt Options) (*Engine, error) {
	return newEngine(net, opt, false)
}

func newEngine(net *dnn.Network, opt Options, sweep bool) (*Engine, error) {
	p, err := newPlanner(nil, net, opt)
	if err != nil {
		return nil, err
	}
	p.sweep = sweep
	return &Engine{
		base:      p,
		sweep:     sweep,
		stale:     newPlanMemo(),
		plans:     make(map[[16]byte]*retainedPlan),
		recentCap: defaultRecentTrees,
		memoCap:   defaultMemoCap,
	}, nil
}

// NewSweepPortfolio builds one retain-everything engine per option set
// for a design-space sweep; see Engine. One sweep-shared memo per
// variant keys subproblems by (interned-subtree digest, effective dims),
// so a subtree two candidate fleets have in common — the same specs
// under the same link wiring, wherever and at whatever depth it hangs —
// is solved once for the whole sweep.
func NewSweepPortfolio(net *dnn.Network, opts ...Options) ([]*Engine, error) {
	engines := make([]*Engine, len(opts))
	for i, opt := range opts {
		e, err := newEngine(net, opt, true)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			// One hardware index serves the portfolio: digests and spec sets
			// are functions of the trees alone, never of options, and sweep
			// engines never rebuild it.
			e.base.hw = engines[0].base.hw
		}
		engines[i] = e
	}
	return engines, nil
}

// LowerBound returns an admissible lower bound on the makespan of any
// plan for tree under the engine's options; see boundModel.
func (e *Engine) LowerBound(tree *hardware.Tree) float64 {
	e.boundOnce.Do(func() { e.bound = newBoundModel(e.base.units, e.base.rootDims(), e.base.opt) })
	return e.bound.lower(tree)
}

// admit indexes tree, moves it to the front of the recent working set
// and evicts beyond capacity. Caller holds e.mu.
func (e *Engine) admit(tree *hardware.Tree) hwInfo {
	info := e.base.hw.ensure(tree)
	if e.sweep {
		return info
	}
	for i := range e.recent {
		if e.recent[i].digest == info.digest {
			r := e.recent[i]
			if r.root != tree {
				// Same content, new tree object (servers rebuild trees per
				// request): track the latest pointer and let gc prune index
				// entries of abandoned ones.
				r.root = tree
				e.gcNeeded = true
			}
			copy(e.recent[1:i+1], e.recent[:i])
			e.recent[0] = r
			return info
		}
	}
	e.recent = append(e.recent, recentTree{})
	copy(e.recent[1:], e.recent)
	e.recent[0] = recentTree{digest: info.digest, specs: info.specs, root: tree}
	for len(e.recent) > e.recentCap {
		last := e.recent[len(e.recent)-1]
		e.recent = e.recent[:len(e.recent)-1]
		delete(e.plans, last.digest)
		e.gcNeeded = true
	}
	return info
}

// maybeGC runs the retention policy and returns how many entries were
// invalidated. The dependency walk drops entries whose hardware left the
// recent working set; the epoch backstop bounds entries on reachable
// hardware whose dims no future search will ask for. Caller holds e.mu;
// invalidation is safe against in-flight calls — a dropped entry is
// re-solved, never wrongly hit.
func (e *Engine) maybeGC(epoch int64) int64 {
	if e.sweep {
		return 0
	}
	var removed int64
	if e.gcNeeded {
		reachable := make(map[uint64]bool, 8)
		roots := make([]*hardware.Tree, 0, len(e.recent))
		for _, r := range e.recent {
			for _, fp := range r.specs {
				reachable[fp] = true
			}
			roots = append(roots, r.root)
		}
		removed += int64(e.base.memo.invalidate(reachable))
		removed += int64(e.stale.invalidate(reachable))
		e.base.hw.rebuild(roots)
		e.gcNeeded = false
	}
	if e.base.memo.len() > e.memoCap {
		removed += int64(e.base.memo.evictBefore(epoch - epochKeepWindow))
	}
	if e.stale.len() > e.memoCap {
		removed += int64(e.stale.evictBefore(epoch - epochKeepWindow))
	}
	if removed > 0 {
		obsReplanInvalidated.Add(removed)
	}
	return removed
}

// retain stores a freshly solved plan under its tree digest if its tree
// is still in the working set (always, for a sweep engine), and returns
// the retained record.
func (e *Engine) retain(info hwInfo, plan *Plan) *retainedPlan {
	rp := &retainedPlan{plan: plan}
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing, ok := e.plans[info.digest]; ok {
		return existing
	}
	keep := e.sweep
	for _, r := range e.recent {
		keep = keep || r.digest == info.digest
	}
	if keep {
		e.plans[info.digest] = rp
	}
	return rp
}

// engineCall is one engine call's bookkeeping: the planner rebound to
// the call, its stats collector (nil for sweep engines) and what the
// retention pass invalidated before it.
type engineCall struct {
	pc          *planner
	rs          *replanStats
	start       time.Time
	invalidated int64
}

func (c *engineCall) stats() ReplanStats {
	if c.rs == nil {
		return ReplanStats{}
	}
	return c.rs.snapshot(c.invalidated, time.Since(c.start))
}

// begin opens a call over trees: a fresh epoch, the working-set update
// and retention pass, the trees' index records and their retained plans
// (nil where none).
func (e *Engine) begin(ctx context.Context, trees ...*hardware.Tree) (*engineCall, []hwInfo, []*retainedPlan) {
	c := &engineCall{start: time.Now()}
	if !e.sweep {
		c.rs = &replanStats{}
	}
	ep := e.epoch.Add(1)
	infos := make([]hwInfo, len(trees))
	rps := make([]*retainedPlan, len(trees))
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, t := range trees {
		infos[i] = e.admit(t)
	}
	c.invalidated = e.maybeGC(ep)
	for i, info := range infos {
		rps[i] = e.plans[info.digest]
	}
	c.pc = e.base.forCall(ctx, ep, c.rs)
	return c, infos, rps
}

// PlanCtx partitions one tree through the engine's retained state: a
// tree already retained returns its plan as a clone; otherwise the
// search runs with every known subproblem served from the retained memo.
// Byte-identical to PartitionCtx with the same (network, options) on the
// same tree; an aborted call reports ErrCanceled or ErrDeadlineExceeded
// and leaves the memo consistent (only completed subproblems publish).
func (e *Engine) PlanCtx(ctx context.Context, tree *hardware.Tree) (*Plan, ReplanStats, error) {
	c, infos, rps := e.begin(ctx, tree)
	if rps[0] != nil && !e.sweep {
		c.pc.noteHit()
		return clonePlan(rps[0].plan), c.stats(), nil
	}
	plan, err := c.pc.plan(tree)
	if err != nil {
		return nil, c.stats(), err
	}
	e.retain(infos[0], plan)
	return clonePlan(plan), c.stats(), nil
}

// ReplanCtx is the incremental replanning pipeline: resolve the pristine
// plan (usually a retained-plan hit), re-cost its decisions on the
// degraded tree (cloning every subtree the fault did not touch and, for
// bounded engines, memoizing what it did), partition the degraded tree
// through the retained memo, and adopt the better post-fault plan. The
// report is byte-identical to a cold search of each pass; the engine
// only changes how much of it was re-computed. Aborted calls publish
// nothing and leave the retained state exactly as consistent as before —
// the next call re-solves whatever the aborted one did not finish.
func (e *Engine) ReplanCtx(ctx context.Context, pristine, degraded *hardware.Tree) (*ReplanReport, ReplanStats, error) {
	c, infos, rps := e.begin(ctx, pristine, degraded)
	pc, prp, drp := c.pc, rps[0], rps[1]
	if prp != nil {
		pc.noteHit()
	} else {
		faultFree, err := pc.plan(pristine)
		if err != nil {
			return nil, c.stats(), err
		}
		prp = e.retain(infos[0], faultFree)
	}

	// The stale re-costing and the fresh degraded partition are
	// independent given the pristine plan; both consult the retained memo.
	// A sweep runs them in order on the caller's goroutine: its
	// concurrency comes from evaluating many candidates at once.
	workers := min(2, parallel.Workers(e.base.opt.Parallelism))
	var decisions map[*PlanNode]uint64
	if e.sweep {
		workers = 1
	} else {
		decisions = prp.decisions()
	}
	var stale, fresh *Plan
	g := parallel.NewGroup(workers)
	g.Go(func() error {
		var serr error
		stale, serr = pc.stalePlan(prp.plan, pristine, degraded, e.stale, decisions)
		return serr
	})
	g.Go(func() error {
		if drp != nil && !e.sweep {
			pc.noteHit()
			fresh = clonePlan(drp.plan)
			return nil
		}
		f, ferr := pc.plan(degraded)
		if ferr != nil {
			return ferr
		}
		e.retain(infos[1], f)
		fresh = f
		return nil
	})
	if err := g.Wait(); err != nil {
		return nil, c.stats(), err
	}

	rep := &ReplanReport{
		FaultFree: clonePlan(prp.plan),
		Stale:     stale,
		Fresh:     fresh,
		Replanned: fresh,
		Adopted:   fresh.Time() < stale.Time(),
	}
	if !rep.Adopted {
		rep.Replanned = stale
	}
	rep.Stats = c.stats()
	if !e.sweep {
		// A sweep models hypothetical fleets, not responses to a live
		// fault: only bounded engines feed the replan latency histogram
		// and event log.
		obsReplanTimer.Observe(time.Since(c.start))
		obs.Log().Info("core.replan",
			"adopted", rep.Adopted,
			"fault_free_seconds", rep.FaultFree.Time(),
			"stale_seconds", stale.Time(),
			"fresh_seconds", fresh.Time())
	}
	return rep, rep.Stats, nil
}

// staleWalk re-costs an existing plan's decisions — the per-node type
// assignments and ratios chosen for pristine hardware — against a
// (typically degraded) hardware tree. Two shortcuts make it incremental,
// and both stay idle when their input is absent: with the pristine tree,
// subtrees whose hardware digest matches their pristine counterpart are
// the plan verbatim (same specs, same decisions, same dims); with
// decision digests, re-costings of touched subtrees are memoized under
// (hardware digest, decision digest) so recurrent faults re-cost
// nothing.
//
// The memo key relies on an invariant of the walk: at every node where
// the degraded structure still aligns with the plan's, the effective
// dims equal old.Dims exactly, because they are computed by the same
// scaleUnitDims chain from the same root dims with the same (α, types)
// decisions (ClampRatio is idempotent on stored ratios). The decision
// digest therefore pins the dims, and (hardware digest, decision digest)
// fully addresses a stale re-costing.
type staleWalk struct {
	pc        *planner
	memo      *planMemo
	decisions map[*PlanNode]uint64
}

// stalePlan re-costs plan on tree; pristine, memo and decisions are
// optional (see staleWalk).
func (p *planner) stalePlan(plan *Plan, pristine, tree *hardware.Tree, memo *planMemo, decisions map[*PlanNode]uint64) (*Plan, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("core: stale evaluation needs a plan")
	}
	p.hw.ensure(tree)
	w := &staleWalk{pc: p, memo: memo, decisions: decisions}
	root, err := w.node(tree, pristine, plan.Root, p.rootDims())
	if err != nil {
		return nil, err
	}
	out := &Plan{Network: p.net, Strategy: plan.Strategy + " (stale)", Root: root}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal stale-plan inconsistency: %w", err)
	}
	return out, nil
}

// node applies one stale decision to one (possibly degraded) hierarchy
// node; pristNode is its pristine counterpart, nil when unknown.
func (w *staleWalk) node(node, pristNode *hardware.Tree, old *PlanNode, dims []tensor.LayerDims) (*PlanNode, error) {
	pc := w.pc
	if err := pc.checkCtx(); err != nil {
		return nil, err
	}
	if old == nil || node.IsLeaf() != old.IsLeaf() {
		// Structure diverged: no stale decision for this subtree. The fresh
		// partition goes through the memo, so a subtree already solved for
		// a fresh pass (or a symmetric sibling) is reused.
		return pc.partitionNode(node, dims)
	}
	var key string
	var specs []uint64
	if pristNode != nil || w.decisions != nil {
		ninfo := pc.hw.ensure(node)
		if pristNode != nil && pc.hw.ensure(pristNode).digest == ninfo.digest {
			// The fault did not touch this subtree's hardware: re-costing the
			// plan's own decisions on the plan's own hardware reproduces the
			// plan.
			pc.noteStaleReuse()
			return clonePlanNodeAt(old, node.Level), nil
		}
		if dec, ok := w.decisions[old]; ok {
			key, specs = staleKey(ninfo.digest, dec), ninfo.specs
			if cached, _, okc := w.memo.get(key, pc.epoch); okc {
				pc.noteHit()
				return clonePlanNodeAt(cached, node.Level), nil
			}
		}
	}
	n, err := w.recost(node, pristNode, old, dims)
	if err != nil || key == "" {
		return n, err
	}
	w.memo.put(key, n, specs, pc.epoch)
	return clonePlanNodeAt(n, node.Level), nil
}

// recost evaluates old's decisions on node from scratch, recursing into
// both children.
func (w *staleWalk) recost(node, pristNode *hardware.Tree, old *PlanNode, dims []tensor.LayerDims) (*PlanNode, error) {
	pc := w.pc
	if node.IsLeaf() {
		return leafNode(node, pc.units, dims, pc.opt)
	}
	sideI := Side{Compute: node.Left.Group.ComputeDensity(), Net: pc.opt.Topology.BisectionBandwidth(node.Left.Group)}
	sideJ := Side{Compute: node.Right.Group.ComputeDensity(), Net: pc.opt.Topology.BisectionBandwidth(node.Right.Group)}
	if err := checkSides(node.Level, sideI, sideJ); err != nil {
		return nil, err
	}
	if len(old.Types) != len(pc.units) {
		return nil, fmt.Errorf("core: stale plan has %d types for %d units", len(old.Types), len(pc.units))
	}
	ctx := newLevelCtx(pc.units, dims, pc.segs, pc.planSegs, sideI, sideJ, pc.opt)
	ctx.alpha = cost.ClampRatio(old.Alpha)
	types := old.Types
	var pl, pr *hardware.Tree
	if pristNode != nil && !pristNode.IsLeaf() {
		pl, pr = pristNode.Left, pristNode.Right
	}
	left, err := w.node(node.Left, pl, old.Left, scaleUnitDims(pc.units, dims, types, ctx.alpha))
	if err != nil {
		return nil, err
	}
	right, err := w.node(node.Right, pr, old.Right, scaleUnitDims(pc.units, dims, types, ctx.beta()))
	if err != nil {
		return nil, err
	}
	return splitNode(node, dims, ctx, types, left, right), nil
}

func staleKey(digest [16]byte, dec uint64) string {
	var b [24]byte
	copy(b[:16], digest[:])
	binary.LittleEndian.PutUint64(b[16:], dec)
	return string(b[:])
}

// planDecisionDigests digests every node's decision context: the (side,
// α, types) path from the root — which, with the engine's fixed root
// dims, pins the node's effective dims — combined with the decision
// subtree below it. Symmetric siblings (identical decisions under
// identical paths) share digests, so their stale re-costings share memo
// entries.
func planDecisionDigests(p *Plan) map[*PlanNode]uint64 {
	m := make(map[*PlanNode]uint64, 512)
	var buf [8]byte
	var walk func(n *PlanNode, path, side uint64) uint64
	walk = func(n *PlanNode, path, side uint64) uint64 {
		if n == nil {
			return 0
		}
		h := fnv.New64a()
		w := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		w(side)
		if n.IsLeaf() {
			w(1)
		} else {
			w(2)
		}
		w(math.Float64bits(n.Alpha))
		w(uint64(len(n.Types)))
		for _, t := range n.Types {
			w(uint64(t))
		}
		own := h.Sum64()
		p2 := mix64(path, own)
		ls := walk(n.Left, p2, 1)
		rsub := walk(n.Right, p2, 2)
		sub := mix64(mix64(own, ls), rsub)
		m[n] = mix64(p2, sub)
		return sub
	}
	walk(p.Root, 0, 0)
	return m
}

// mix64 combines two 64-bit hashes (splitmix-style finalizer).
func mix64(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Engines is a bounded LRU registry of bounded-retention Engines keyed
// by (network structure, root dims, decision-relevant options), so a
// serving session holds one engine per distinct search it has replanned
// — including one per portfolio variant — without unbounded growth. It
// also interns hardware trees by content (see InternTree), so callers
// that rebuild their array per request keep presenting the engines with
// stable tree pointers.
type Engines struct {
	mu      sync.Mutex
	engines lru[*Engine]
	trees   lru[*hardware.Tree]
}

// lru is a small MRU-ordered map; the registry guards it with its mutex.
type lru[V any] struct {
	capacity int
	m        map[string]V
	order    []string // MRU-first
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{capacity: capacity, m: make(map[string]V)}
}

// get returns key's value, moving it to the front.
func (l *lru[V]) get(key string) (V, bool) {
	v, ok := l.m[key]
	if ok {
		i := slices.Index(l.order, key)
		copy(l.order[1:i+1], l.order[:i])
		l.order[0] = key
	}
	return v, ok
}

// add inserts a new key at the front, evicting the least recently used
// beyond capacity.
func (l *lru[V]) add(key string, v V) {
	l.m[key] = v
	l.order = append([]string{key}, l.order...)
	for len(l.order) > l.capacity {
		delete(l.m, l.order[len(l.order)-1])
		l.order = l.order[:len(l.order)-1]
	}
}

// treeInternCap bounds the interned trees per registry: enough for a
// pristine fleet plus a working set of recurrent degradations.
const treeInternCap = 64

// NewEngines returns a registry bounded to capacity engines (≤ 0
// selects 16).
func NewEngines(capacity int) *Engines {
	if capacity <= 0 {
		capacity = 16
	}
	return &Engines{engines: newLRU[*Engine](capacity), trees: newLRU[*hardware.Tree](treeInternCap)}
}

// InternTree returns a hardware tree for the array, reusing the
// registry's retained tree when one with identical content (same
// ordered spec list, same level budget) exists. Servers rebuild the
// array object on every request; without interning each request's fresh
// tree pointer forces the engines' hardware index to re-digest the
// whole hierarchy (O(fleet) hashing) before a single retained entry can
// be consulted. With it, a recurrent request presents the exact pointer
// the index already knows and the digest lookup is O(1). Interning
// never changes plans — trees with equal content plan identically — it
// only makes the recurrent case cheap.
func (s *Engines) InternTree(arr *hardware.Array, maxLevels int) (*hardware.Tree, error) {
	key := arrayKey(arr, maxLevels)
	s.mu.Lock()
	t, ok := s.trees.get(key)
	s.mu.Unlock()
	if ok {
		return t, nil
	}
	// Build outside the lock; a racing builder of the same content loses
	// to whichever registered first, keeping the pointer stable.
	t, err := hardware.BuildTree(arr, maxLevels)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.trees.get(key); ok {
		return existing, nil
	}
	s.trees.add(key, t)
	return t, nil
}

// arrayKey fingerprints an array's content plus the tree level budget.
func arrayKey(arr *hardware.Array, maxLevels int) string {
	h := fnv.New128a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(int64(maxLevels))
	wInt(int64(len(arr.Name)))
	h.Write([]byte(arr.Name))
	wInt(int64(len(arr.Accel)))
	for _, s := range arr.Accel {
		wInt(int64(s.Fingerprint()))
	}
	return string(h.Sum(nil))
}

// Engine returns the registry's engine for (net, opt), creating and
// admitting one on first use. Networks are matched by content (structure
// and dims), not pointer, so servers that rebuild the network per
// request keep hitting the same engine.
func (s *Engines) Engine(net *dnn.Network, opt Options) (*Engine, error) {
	e, err := NewEngine(net, opt)
	if err != nil {
		return nil, err
	}
	key := engineKey(e.base)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.engines.get(key); ok {
		return existing, nil
	}
	s.engines.add(key, e)
	return e, nil
}

// Len returns the resident engine count.
func (s *Engines) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.engines.m)
}

// engineKey fingerprints everything fixed per engine: the search
// fingerprint (network structure + decision-relevant options) plus the
// root dims, which the search fingerprint deliberately excludes (dims
// travel in subproblem keys there, but an engine's retained plans are
// bound to one batch geometry).
func engineKey(p *planner) string {
	h := fnv.New128a()
	h.Write([]byte(searchFingerprint(p.units, p.segs, p.planSegs, p.opt)))
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, u := range p.units {
		d := u.Dims
		wInt(int64(d.B))
		wInt(int64(d.Di))
		wInt(int64(d.Do))
		wInt(int64(d.HIn))
		wInt(int64(d.WIn))
		wInt(int64(d.HOut))
		wInt(int64(d.WOut))
		wInt(int64(d.KH))
		wInt(int64(d.KW))
	}
	return string(h.Sum(nil))
}

// Portfolio resolves the registry's engine for each option set, in
// order; see PlanBestCtx.
func (s *Engines) Portfolio(net *dnn.Network, opts ...Options) ([]*Engine, error) {
	engines := make([]*Engine, len(opts))
	for i, opt := range opts {
		e, err := s.Engine(net, opt)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}
