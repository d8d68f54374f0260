// Package platform is the serverless platform: controller (autoscaling),
// FFS load balancer (heterogeneity-aware routing, §5.3), and per-node
// invokers (pipeline construction, slice allocation, hotness-aware
// eviction-based time sharing, pipeline migration). It executes
// functions as tandem queueing stations on a deterministic discrete-
// event engine, so whole-cluster runs over production-scale traces take
// milliseconds and are exactly reproducible.
package platform

import (
	"fmt"
	"math"
	"slices"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dag"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/sim"
	"fluidfaas/internal/trace"
)

// FunctionSpec registers one serverless function with the platform.
type FunctionSpec struct {
	// ID is the function index trace requests carry.
	ID int
	// Name for reporting.
	Name string
	// DAG is the FFS DAG with profiles (BUILDDAG-mode output).
	DAG *dag.DAG
	// Parts is the CV-ranked partition list (computed offline, §5.2.2).
	Parts []dag.Partition
	// SLO is the function's latency budget in seconds.
	SLO float64
}

// Options configure a platform run.
type Options struct {
	// Policy decides instance placement and platform features.
	Policy scheduler.Policy
	// Seed feeds the platform's RNG streams.
	Seed int64
	// IdleDemote is how long an exclusive instance must sit below the
	// hotness threshold before demotion/retirement (default 20 s).
	IdleDemote float64
	// KeepAlive is the exclusive keep-alive timeout of the baselines
	// and the warm->cold timeout of FluidFaaS (default 600 s, §5.3).
	KeepAlive float64
	// MaxBatch enables dynamic batching at instances: stages coalesce
	// up to MaxBatch requests into one execution (1 = off, the paper's
	// configuration; INFless-style serving systems batch).
	MaxBatch int
	// Faults, when set, injects hardware failures during Run: the
	// schedule is built deterministically from the spec and Seed, so
	// the same seed always produces the same faults. Nil (or an empty
	// spec) leaves the run bit-for-bit identical to a fault-free one.
	Faults *faults.Spec
	// Routing selects the load balancer's instance order; the default
	// is the paper's heterogeneity-aware lowest-latency-first (§5.3).
	// The alternatives exist for the routing ablation.
	Routing RoutingOrder
	// Overload enables SLO-aware admission at route. The zero value
	// turns it off, leaving runs bit-for-bit identical.
	Overload overload.Config
	// Swap enables the model-swapping memory tier (swap.go): per-model
	// host-pool reservations with LRU eviction, parked copies that make
	// rebinds a swap-in instead of a remote refetch. The zero value
	// keeps the legacy warm accounting (a copy lives exactly as long as
	// its binding), leaving runs bit-for-bit identical.
	Swap SwapOptions
	// Gray enables the gray-failure resilience subsystem (gray.go,
	// hedge.go): per-slice health scoring over observed-vs-declared
	// execution ratios, quarantine of slices whose timing diverges, and
	// (with Gray.Hedge) hedged retries for deadline-at-risk requests on
	// suspect slices. The zero value turns it all off, leaving runs
	// bit-for-bit identical.
	Gray GrayOptions
	// Obs, when set, records per-request traces (typed spans on one
	// track per MIG slice), lifecycle instants, and exportable metrics
	// (latency histograms, per-slice busy seconds). The recorder is a
	// pure observer: a run with Obs attached is bit-for-bit identical
	// to one without (nil short-circuits every instrumentation point).
	Obs *obs.Recorder
	// Decisions, when set, records decision provenance: every scheduling
	// choice point (admission, rejection, plan-cache lookups, binds,
	// demotions, swap evictions, quarantines, hedges, fault retries,
	// drops) logs a typed record of the inputs it saw and the outcome it
	// chose, causally linked to the request's trace by request ID and
	// attempt. Like Obs, it is a pure observer: nil short-circuits every
	// recording point, keeping recorder-off runs bit-for-bit identical
	// (enforced by test).
	Decisions *decisions.Recorder
	// Util, when set, feeds the GPU utilization ledger: a time-weighted
	// per-slice state integrator classifying every slice-second into
	// busy-exec/load/transfer, warm-idle (bound keepalive), cold-idle
	// (free, placeable), stranded (free but too small for any registered
	// stage) or quarantined, with GPU/node/cluster roll-ups, an exact
	// conservation invariant, and fragmentation analytics. Like Obs and Decisions it is a pure observer: nil
	// short-circuits every hook, keeping ledger-off runs bit-for-bit
	// identical (enforced by test).
	Util *util.Ledger
	// OnSample, when set, is called every virtual second (samplePeriod)
	// with the current virtual time and the cluster, so experiments can
	// record custom series (e.g. per-slice-type activity for Fig. 3b).
	OnSample func(now float64, cl *cluster.Cluster)
	// OnComplete, when set, observes every finalised request record
	// (served or dropped). Drivers building higher-level structures —
	// e.g. function-chaining workflows — use it to trigger downstream
	// invocations.
	OnComplete func(rec metrics.RequestRecord)
}

// Tuning of the controller, load balancer and invokers (§5.3).
const (
	// controlPeriod is the autoscaler cadence (s).
	controlPeriod float64 = 1
	// samplePeriod is the utilisation sampling cadence (s).
	samplePeriod float64 = 1
	// queueSlack scales instance admission capacity:
	// maxOutstanding = max(1, floor(queueSlack*SLO/bottleneck)).
	queueSlack float64 = 1
	// pendingDrop drops a pending request after this multiple of its
	// SLO (mimicking client-side timeouts; drops count as SLO misses).
	pendingDrop float64 = 4
	// maxInstancesPerFunc caps autoscaling.
	maxInstancesPerFunc = 64
	// batchWindow bounds how long a forming batch waits (s).
	batchWindow float64 = 0.020
	// batchGamma scales batch service time: exec(n) = exec(1)·n^gamma
	// (sublinear, the reason batching pays).
	batchGamma float64 = 0.7
)

// Fault-triggered retries. A request whose hardware fails is re-routed
// after a capped exponential backoff; it is abandoned (recorded as a
// failed drop) once the attempt budget is spent or no retry can land
// before its drop deadline.
const (
	// retryMaxAttempts is the maximum number of re-routes per request.
	retryMaxAttempts = 3
	// retryBaseBackoff is the delay before the first retry; each
	// further retry doubles it (s).
	retryBaseBackoff float64 = 0.050
	// retryBackoffCap bounds the backoff growth (s).
	retryBackoffCap float64 = 1
)

// A request's re-routes are counted in metrics.RequestRecord.Retries,
// an int16: a retry cap past its range fails to build.
var _ int16 = retryMaxAttempts

func (o *Options) fillDefaults() {
	if o.IdleDemote <= 0 {
		o.IdleDemote = 20
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = keepalive.IdleTimeout
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1
	}
}

// RoutingOrder selects how the load balancer orders a function's
// exclusive-hot instances.
type RoutingOrder int

// Routing orders.
const (
	// RouteLatencyAsc is the paper's heterogeneity-aware routing:
	// lowest unloaded latency first, so urgent requests land on the
	// fastest deployments (§5.3).
	RouteLatencyAsc RoutingOrder = iota
	// RouteLatencyDesc is the adversarial ablation: slowest first.
	RouteLatencyDesc
	// RouteRoundRobin ignores heterogeneity entirely.
	RouteRoundRobin
)

// request is one in-flight invocation.
type request struct {
	id      int
	fn      *Function
	arrival float64
	// deadline = arrival + SLO; pending requests are EDF-ordered.
	deadline float64
	rec      metrics.RequestRecord

	// attempts counts hardware failures this request has suffered; the
	// retry policy bounds how many it may survive.
	attempts int
	// waitStart is when the current attempt began waiting (arrival, or
	// the retry re-route instant). Tracing-only: the queue span of the
	// attempt runs from waitStart to service start.
	waitStart float64
	// snapExec/snapLoad/snapTransfer snapshot the latency breakdown at
	// admission, so a failed attempt's partial accounting can be rolled
	// back (the wasted time then lands in Queue as the residual).
	snapExec     float64
	snapLoad     float64
	snapTransfer float64

	// hedge links the two copies of a hedged request (hedge.go); nil
	// for ordinary requests.
	hedge *hedgeState
}

// snapshot records the breakdown at admission for fault rollback.
func (rq *request) snapshot() {
	rq.snapExec = rq.rec.Exec
	rq.snapLoad = rq.rec.Load
	rq.snapTransfer = rq.rec.Transfer
}

// Platform wires the controller, load balancer and invokers together.
type Platform struct {
	eng      *sim.Engine
	cl       *cluster.Cluster
	opts     Options
	funcs    []*Function
	fnByName map[string]*Function
	inv      []*Invoker
	col      *metrics.Collector

	// gpus is cl.AllGPUs() and totalGPCs is cl.TotalGPCs(), taken once:
	// the topology is fixed at construction, and the utilisation sampler
	// reads both every period.
	gpus      []*mig.GPU
	totalGPCs float64

	// Sampled series for Figs. 3a and 16.
	UtilGPCs     metrics.Timeline // active GPCs / total GPCs
	OccupiedGPCs metrics.Timeline // allocated GPCs / total GPCs
	// Fragmentation samples mig.FragmentationIndex over the free slices:
	// how shattered the unallocated compute is (§4).
	Fragmentation metrics.Timeline
	// HostPoolOcc samples the mean host-memory pool occupancy across
	// nodes (the swap tier's pressure signal; sampled regardless of
	// whether the tier is enabled).
	HostPoolOcc metrics.Timeline

	// subs are the lifecycle-event subscribers (Subscribe), called in
	// registration order.
	subs []func(Event)

	// Scratch buffers reused across scaleUp passes (controller.go)
	// and by nodeFreeViews.
	scratchReqs  []scheduler.Req
	scratchFns   []*Function
	scratchViews []scheduler.NodeFree
	scratchPhys  [][]*mig.Slice
	// lastEmpty is the last scale-up round that placed nothing.
	lastEmpty emptyRound
	// candBuf is route's reused buffer of passed-over candidates.
	candBuf []decisions.Cand
	// scratchInsts is manageKeepAlive's copy of a function's instances.
	scratchInsts []*Instance
	// reqPool and jobPool hold finalised requests and the stage jobs
	// that carried them (recycle); arrivals and admissions take from
	// them first. reqFree and jobFree are the unused tails of the
	// blocks carved when a pool is empty (carve). arrivalsLeft, set by
	// Run's trace stream, is how many trace arrivals remain; it caps a
	// new block's size, so a trace's last blocks are no larger than
	// the arrivals left to fill them.
	reqPool      []*request
	jobPool      []*stageJob
	reqFree      []request
	jobFree      []stageJob
	arrivalsLeft int

	// tally counts published lifecycle events by kind (logEvent). It is
	// the single source of the run counters whose transitions emit
	// exactly one event kind: launches, evictions, migrations, faults,
	// retries, rejections, swap-ins, swap-outs, quarantines, hedges.
	tally [numEventKinds]int

	instSeq   int
	scaleKick bool // an immediate scale-up pass is scheduled
	// kick is the scale-up pass's event and kickFn its callback, bound
	// once in New: scaleKick keeps at most one pending, so one event
	// serves every kick.
	kick   sim.Event
	kickFn func()

	// Fault subsystem state. Recoveries stay a field: gray probation
	// readmission also emits EvRecover.
	recoveries int // hardware repairs applied

	// Gray-failure resilience state (gray.go, hedge.go; all inert when
	// opts.Gray is zero except degraded, which degraded-slice fault
	// events populate regardless — the slowdown is physics, the scorer
	// is the optional response). Suspects and hedge cancels stay fields:
	// probation readmission also emits EvSliceSuspect, and a hedge copy
	// losing its hardware also emits EvHedgeCancel.
	degraded       map[*mig.Slice]float64      // active severity per degraded slice
	health         map[*mig.Slice]*sliceHealth // scorer state per observed slice
	suspects       int                         // healthy->suspect transitions
	hedgeWins      int                         // hedges whose clone won the race
	hedgeCancels   int                         // losing copies cancelled/swallowed
	hedgeWastedSec float64                     // exec+load seconds losers burned
	// probation is how long a quarantined slice sits out: grayProbation,
	// except where in-package tests replay runs pinned at a shorter one.
	probation float64
	// runEnd bounds retry backoffs: a retry that cannot land before the
	// run ends is pointless (the request would never be recorded).
	runEnd float64

	// utilHostable marks slice types at least one registered deployable
	// unit (monolithic function or pipeline stage) fits — the ledger's
	// cold-idle vs stranded discriminator. Only filled when Options.Util
	// is attached (util.go).
	utilHostable [mig.NumSliceTypes]bool
}

// New builds a platform over the cluster with the registered functions.
func New(cl *cluster.Cluster, specs []FunctionSpec, opts Options) *Platform {
	opts.fillDefaults()
	if opts.Policy == nil {
		panic("platform: nil policy")
	}
	p := &Platform{
		eng:       sim.NewEngine(),
		cl:        cl,
		gpus:      cl.AllGPUs(),
		totalGPCs: float64(cl.TotalGPCs()),
		opts:      opts,
		fnByName:  make(map[string]*Function),
		col:       metrics.NewCollector(),
		runEnd:    math.Inf(1),
		degraded:  make(map[*mig.Slice]float64),
		health:    make(map[*mig.Slice]*sliceHealth),
		probation: grayProbation,
	}
	p.kickFn = p.kicked
	if rec := p.opts.Obs; rec != nil {
		// One trace track per MIG slice, in topology order, and a
		// lossless mirror of the lifecycle stream into the recorder.
		for _, node := range cl.Nodes {
			for _, g := range node.GPUs {
				for _, sl := range g.Slices {
					rec.RegisterTrack(node.ID, sl.ID())
				}
			}
		}
		p.Subscribe(func(e Event) {
			rec.MarkCat("event", e.Kind.String(), e.Subject, e.Time, e.Detail)
		})
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
		if spec.ID != i {
			panic(fmt.Sprintf("platform: spec %d has ID %d; IDs must be dense", i, spec.ID))
		}
		fn := newFunction(spec)
		p.funcs = append(p.funcs, fn)
		if _, dup := p.fnByName[spec.Name]; dup {
			panic(fmt.Sprintf("platform: duplicate function name %q", spec.Name))
		}
		p.fnByName[spec.Name] = fn
	}
	// The collector is the run's one request store: the recorder reads
	// its records, and record notes each one's place in the span log.
	p.opts.Obs.Bind(p.col, names)
	for _, node := range cl.Nodes {
		// The plan cache's key packs each per-profile count of a
		// node's free slices; a count above pipeline.MaxCount does not
		// fit.
		var per pipeline.Counts
		for _, g := range node.GPUs {
			for _, sl := range g.Slices {
				per[sl.Type]++
			}
		}
		for t, n := range per {
			if n > pipeline.MaxCount {
				panic(fmt.Sprintf("platform: node %d has %d %v slices; at most %d of one profile fit the plan cache",
					node.ID, n, mig.SliceType(t), pipeline.MaxCount))
			}
		}
		p.inv = append(p.inv, newInvoker(p, node))
	}
	p.utilRegister()
	if p.decOn() {
		p.wireDecisions()
	}
	return p
}

// Engine exposes the simulation kernel (for tests and custom drivers).
func (p *Platform) Engine() *sim.Engine { return p.eng }

// Collector returns the request-outcome collector.
func (p *Platform) Collector() *metrics.Collector { return p.col }

// Launched returns how many instances were launched.
func (p *Platform) Launched() int { return p.tally[EvLaunch] }

// Evictions returns how many time-sharing evictions occurred.
func (p *Platform) Evictions() int { return p.tally[EvEvict] }

// Migrations returns how many pipeline->monolithic migrations occurred.
func (p *Platform) Migrations() int { return p.tally[EvMigrate] }

// FaultsInjected returns how many hardware faults took effect: fail-stop
// faults plus gray degradations.
func (p *Platform) FaultsInjected() int { return p.tally[EvFault] + p.tally[EvDegrade] }

// Recoveries returns how many hardware repairs were applied.
func (p *Platform) Recoveries() int { return p.recoveries }

// Retries returns how many fault-triggered request re-routes occurred.
func (p *Platform) Retries() int { return p.tally[EvRetry] }

// Rejected returns how many requests admission control fast-failed.
func (p *Platform) Rejected() int { return p.tally[EvReject] }

// Run replays the trace: requests arrive at their trace times, the
// controller ticks at its period, and the engine runs until the trace
// ends plus drain seconds (so in-flight requests finish).
func (p *Platform) Run(tr *trace.Trace, drain float64) {
	reqs := tr.Requests
	p.col.Reserve(len(reqs))
	// Arrivals feed the engine as one lazy stream. A hand-built trace not
	// sorted by arrival replays a stable-sorted copy, which fires tied
	// arrivals in trace order, as scheduling each one up front would.
	if !slices.IsSortedFunc(reqs, trace.ByArrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, trace.ByArrival)
	}
	p.eng.Stream(len(reqs),
		func(i int) sim.Time { return reqs[i].Arrival },
		func(i int) {
			p.arrivalsLeft = len(reqs) - i
			p.InjectRequest(reqs[i].Func, reqs[i].ID)
		})
	end := tr.Duration + drain
	p.runEnd = end
	p.scheduleFaults(end)
	// Control and sampling loops.
	var control func()
	control = func() {
		p.controlTick()
		if p.eng.Now()+controlPeriod <= end {
			p.eng.After(controlPeriod, control)
		}
	}
	p.eng.After(controlPeriod, control)
	var sample func()
	sample = func() {
		p.sampleUtilization()
		if p.eng.Now()+samplePeriod <= end {
			p.eng.After(samplePeriod, sample)
		}
	}
	p.eng.At(0, sample)
	p.eng.RunUntil(end)
	// Requests still pending at the end are dropped (SLO misses). The
	// drop time is the completion: the record's latency is how long the
	// request waited before being abandoned, never negative.
	for _, fn := range p.funcs {
		fn.pending.Filter(func(rq *request) bool {
			rq.rec.Dropped = true
			rq.rec.Completion = p.eng.Now()
			if p.decOn() {
				p.decide(decisions.Record{
					Kind: decisions.KindDrop, Func: fn.spec.Name,
					Req: rq.id, Attempt: rq.attempts,
					Rule: "run-end", Outcome: "still pending when the run ended",
				})
			}
			p.record(rq.rec)
			return false
		})
	}
	p.utilClose(end)
	p.exportRunCounters()
	p.opts.Obs.SetDuration(end)
}

// blockLen is how many requests, or stage jobs, one allocation holds.
const blockLen = 512

// carve returns the next element of the block *free, allocating a new
// block first when it is used up. The element is zero. A block stays
// live while any of its elements is reachable.
func carve[T any](p *Platform, free *[]T) *T {
	if len(*free) == 0 {
		n := blockLen
		if p.arrivalsLeft > 0 {
			n = min(n, p.arrivalsLeft)
		}
		*free = make([]T, n)
	}
	x := &(*free)[0]
	*free = (*free)[1:]
	return x
}

// take returns the most recently recycled element of *pool, or one
// carved from *free when the pool is empty. A recycled element keeps
// whatever its last use left in it.
func take[T any](p *Platform, pool *[]*T, free *[]T) *T {
	if n := len(*pool); n > 0 {
		x := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return x
	}
	return carve(p, free)
}

// recycle returns a finalised request, and sj, the stage job that
// carried it (nil when it left a shared slice or went unserved), to the
// platform's pools. Each exit calls it once, after its last read of rq
// and sj: the last stage's Done, a pool slice's completion callback
// (sharedSlice.finish) and finishUnserved. Hedge copies are never
// recycled: their partner still reads the shared hedgeState.
//
// A recycled request may still be referenced, but only from state that
// never touches it again: a failed instance's stale stage jobs, which
// check inst.failed before they read their request and must keep doing
// so. A failed pool slice holds no request: failShared clears the job
// in service, and finish checks ss.failed first.
func (p *Platform) recycle(rq *request, sj *stageJob) {
	if rq.hedge != nil {
		return
	}
	p.reqPool = append(p.reqPool, rq)
	if sj != nil {
		p.jobPool = append(p.jobPool, sj)
	}
}

// InjectRequest routes a request for function fn arriving now, tagged
// with id. Trace replay uses it internally; external drivers (e.g. the
// workflow chaining study) call it from engine events to create
// requests dynamically.
func (p *Platform) InjectRequest(fn, id int) {
	if fn < 0 || fn >= len(p.funcs) {
		panic(fmt.Sprintf("platform: request for unknown function %d", fn))
	}
	f := p.funcs[fn]
	now := p.eng.Now()
	rq := take(p, &p.reqPool, &p.reqFree)
	*rq = request{
		id:       id,
		fn:       f,
		arrival:  now,
		deadline: now + f.spec.SLO,
		rec: metrics.RequestRecord{
			ID:      id,
			Func:    fn,
			Arrival: now,
			SLO:     f.spec.SLO,
		},
	}
	p.route(rq)
}

// complete finalises a request. Queue time is the residual of the
// end-to-end latency after execution, transfers and loads — it covers
// both pending time at the load balancer and waiting at stage queues.
func (p *Platform) complete(rq *request) {
	if rq.hedge != nil && p.settleHedge(rq) {
		// Losing copy of a hedged request: its partner's completion was
		// already recorded; this one only left wasted work behind.
		return
	}
	rq.fn.served++
	rq.rec.Completion = p.eng.Now()
	q := (rq.rec.Completion - rq.rec.Arrival) - rq.rec.Exec - rq.rec.Transfer - rq.rec.Load
	if q < 0 {
		q = 0
	}
	rq.rec.Queue = q
	p.record(rq.rec)
}

// finishUnserved is the one exit of a request that leaves without
// service: a client-timeout drop, an abandoned retry or a rejection.
// Its record completes now as dropped, and as rejected for a reject.
// The drop is when the request leaves the system; without it,
// Latency() on a dropped record goes negative. The transition on rq is
// logged with decision, then the record is kept and rq recycled. rq is
// not part of a caller-built transition: it escapes into the pool, and
// a transition holding it would take decision's closure to the heap
// with it.
func (p *Platform) finishUnserved(rq *request, kind EventKind, detail string, decision func() decisions.Record) {
	rec := &rq.rec
	rec.Dropped = true
	rec.Rejected = kind != EvDrop
	rec.Completion = p.eng.Now()
	p.logEvent(kind, rq.fn.spec.Name, detail, transition{rq: rq, decision: decision})
	p.record(*rec)
	p.recycle(rq, nil)
}

// record finalises a request record and notifies the OnComplete hook.
func (p *Platform) record(rec metrics.RequestRecord) {
	p.col.Record(rec)
	p.opts.Obs.RequestDone()
	if p.opts.OnComplete != nil {
		p.opts.OnComplete(rec)
	}
}

func (p *Platform) sampleUtilization() {
	now := p.eng.Now()
	p.UtilGPCs.Add(now, float64(p.cl.ActiveGPCs())/p.totalGPCs)
	p.OccupiedGPCs.Add(now, float64(p.cl.OccupiedGPCs())/p.totalGPCs)
	fi := mig.FragmentationIndex(p.gpus)
	p.Fragmentation.Add(now, fi)
	p.utilSample(now, fi)
	p.HostPoolOcc.Add(now, p.poolOccupancy())
	if p.opts.OnSample != nil {
		p.opts.OnSample(now, p.cl)
	}
}

// nodeFreeViews snapshots free slices per node for the policy. Each
// invoker revalidates its cached snapshot against the node's free-set
// generation (bumped by every slice allocate/release, health flip and
// quarantine flip at the mig/cluster layer), so an unchanged node costs
// O(GPUs) instead of a full slice walk, re-sort and tally. The returned
// slices are scratch, valid until the next call; no policy retains them.
func (p *Platform) nodeFreeViews() ([]scheduler.NodeFree, [][]*mig.Slice) {
	views := p.scratchViews[:0]
	phys := p.scratchPhys[:0]
	for _, inv := range p.inv {
		types, free, counts := inv.freeView()
		views = append(views, scheduler.NodeFree{Node: inv.node.ID, Free: types, Counts: counts})
		phys = append(phys, free)
	}
	p.scratchViews, p.scratchPhys = views, phys
	return views, phys
}

// PlannerStats aggregates the plan-cache statistics over all functions.
// Zero-valued when the cache is disabled.
func (p *Platform) PlannerStats() pipeline.PlannerStats {
	var s pipeline.PlannerStats
	for _, fn := range p.funcs {
		s.Add(fn.planner.Stats())
	}
	return s
}
