package service

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// serviceMetrics is the daemon's registered metric set. All methods are
// safe on a nil receiver, so instrumentation sites never branch on
// whether -metrics is configured; a nil *serviceMetrics (metrics off)
// costs one pointer compare per event.
type serviceMetrics struct {
	reg *telemetry.Registry

	submitted   *telemetry.Counter
	cacheServed *telemetry.Counter
	preempted   *telemetry.Counter
	resumed     *telemetry.Counter
	reloadOK    *telemetry.Counter
	reloadFail  *telemetry.Counter

	mu         sync.Mutex
	jobSeconds map[string]*telemetry.Histogram // per tenant, lazily registered
}

// newServiceMetrics registers the service's series on reg. The gauge
// and shed-counter families read the scheduler's own Stats() at scrape
// time — the same numbers /v1/healthz serves, by construction.
func newServiceMetrics(reg *telemetry.Registry, s *Server) *serviceMetrics {
	m := &serviceMetrics{
		reg:        reg,
		jobSeconds: make(map[string]*telemetry.Histogram),
		submitted: reg.Counter("muontrap_service_jobs_submitted_total",
			"Sweep submissions admitted (including born-done cache hits)."),
		cacheServed: reg.Counter("muontrap_service_jobs_cache_served_total",
			"Submissions answered whole from the content-keyed result store."),
		preempted: reg.Counter("muontrap_service_preemptions_total",
			"Bulk attempts driven to a checkpoint boundary to free a slot for interactive work."),
		resumed: reg.Counter("muontrap_service_resumes_total",
			"Jobs re-queued through the checkpoint-resume path."),
		reloadOK: reg.Counter("muontrap_service_tenant_reloads_total",
			"Tenant-table hot reloads by result.", telemetry.L("result", "success")),
		reloadFail: reg.Counter("muontrap_service_tenant_reloads_total",
			"Tenant-table hot reloads by result.", telemetry.L("result", "failure")),
	}
	reg.GaugeFunc("muontrap_service_sse_subscribers",
		"SSE progress subscribers currently connected.",
		func() float64 { return float64(s.front.Subscribers()) })
	reg.GaugeFunc("muontrap_service_queue_depth",
		"Jobs waiting for a runner slot.",
		func() float64 { return float64(s.Stats().QueueDepth) })
	reg.GaugeFunc("muontrap_service_running_jobs",
		"Jobs currently holding a runner slot.",
		func() float64 { return float64(s.Stats().Running) })
	reg.GaugeFunc("muontrap_service_jobs_known",
		"Jobs known to the daemon in any state.",
		func() float64 { return float64(s.Stats().Jobs) })
	reg.GaugeFunc("muontrap_service_tenants",
		"Configured tenants (0 = open mode).",
		func() float64 { return float64(s.Stats().Tenants) })
	reg.CounterFunc("muontrap_service_shed_total",
		"Submissions shed by admission control, by reason.",
		func() float64 { return float64(s.Stats().ShedOverQuota) },
		telemetry.L("reason", "quota"))
	reg.CounterFunc("muontrap_service_shed_total",
		"Submissions shed by admission control, by reason.",
		func() float64 { return float64(s.Stats().ShedOverCapacity) },
		telemetry.L("reason", "capacity"))
	if s.trace != nil {
		reg.CounterFunc("muontrap_service_trace_drops_total",
			"Lifecycle spans that failed to reach the JSONL trace file.",
			func() float64 { return float64(s.trace.Dropped()) })
	}
	return m
}

func (m *serviceMetrics) jobSubmitted(cached bool) {
	if m == nil {
		return
	}
	m.submitted.Inc()
	if cached {
		m.cacheServed.Inc()
	}
}

func (m *serviceMetrics) jobPreempted() {
	if m == nil {
		return
	}
	m.preempted.Inc()
}

func (m *serviceMetrics) jobResumed() {
	if m == nil {
		return
	}
	m.resumed.Inc()
}

func (m *serviceMetrics) reload(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.reloadOK.Inc()
	} else {
		m.reloadFail.Inc()
	}
}

// observeJobSeconds records one job's submit→terminal wall time in its
// tenant's latency histogram. Called once per finished job — never on a
// hot path — so the lazy per-tenant registration mutex is harmless.
func (m *serviceMetrics) observeJobSeconds(tenant string, sec float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.jobSeconds[tenant]
	if h == nil {
		h = m.reg.Histogram("muontrap_service_job_seconds",
			"Job wall time from admission to a terminal state, by tenant.",
			telemetry.DefBuckets(), telemetry.L("tenant", tenant))
		m.jobSeconds[tenant] = h
	}
	m.mu.Unlock()
	h.Observe(sec)
}

// span emits one lifecycle record; a nil tracer drops it. A job's ID and
// tenant never change once it is registered, so no lock is needed.
func (s *Server) span(event string, j *job, seconds float64, detail string) {
	if s.trace == nil {
		return
	}
	s.trace.Emit(telemetry.Span{
		Event: event, Job: j.Rec.ID, Tenant: j.Rec.Tenant,
		Seconds: seconds, Detail: detail,
	})
}

// ReloadTenants validates ts, rebuilds the tenant table, rebinds every
// known job to its new tenant entry, and recomputes the live quota
// counters from the scheduler's actual queues — so quotas keep counting
// correctly across the swap. Any validation failure leaves the old
// table fully in force. Reloading from authenticated to open mode is
// refused: silently disabling auth on a SIGHUP typo is a foot-gun, and
// running open is an explicit restart-time decision.
func (s *Server) ReloadTenants(ts []Tenant) error {
	tbl, err := newTenantTable(ts)
	if err != nil {
		s.met.reload(false)
		return err
	}
	if s.tenants.Load() != nil && tbl == nil {
		s.met.reload(false)
		return fmt.Errorf("refusing to reload an empty tenant table over an authenticated daemon; restart without -tenants to run open")
	}
	s.mu.Lock()
	for _, h := range s.front.Jobs() {
		j := h.(*job)
		j.tenant = tbl.owner(j.Snapshot().Tenant)
	}
	for class := range s.pending {
		for _, j := range s.pending[class] {
			if j.tenant != nil {
				j.tenant.queued++
			}
		}
	}
	for j := range s.running {
		if j.tenant != nil {
			j.tenant.running++
		}
	}
	s.tenants.Store(tbl)
	// Loosened quotas may unblock queued jobs immediately.
	s.dispatchLocked()
	s.mu.Unlock()
	s.met.reload(true)
	return nil
}

// ReloadTenantsFile is the SIGHUP entry point: load + reload, counting
// a failure (unreadable or invalid file keeps the old table).
func (s *Server) ReloadTenantsFile(path string) error {
	ts, err := LoadTenants(path)
	if err != nil {
		s.met.reload(false)
		return err
	}
	return s.ReloadTenants(ts)
}

// born stamps are monotonic (time.Time carries a monotonic clock
// reading), so job latency observations are immune to wall-clock steps.
func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }
