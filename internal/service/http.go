package service

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/jobs"
)

// Tenant auth for the jobs front-end's route table. With tenants
// configured, every route except /v1/healthz requires an API key
// ("Authorization: Bearer <key>" or "X-API-Key: <key>"; 401 otherwise).
// Job listings and reads are visible across tenants — the daemon serves
// one shared, content-keyed experiment corpus — but cancel and resume act
// only on the caller's own jobs (403 otherwise).

// tenantCtxKey carries the authenticated tenant through the request
// context.
type tenantCtxKey struct{}

// requestKey extracts the presented API key: "Authorization: Bearer
// <key>" preferred, "X-API-Key: <key>" for clients that cannot set
// Authorization.
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		const prefix = "Bearer "
		if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
			return strings.TrimSpace(h[len(prefix):])
		}
		return "" // an Authorization header in any other scheme is not a key
	}
	return r.Header.Get("X-API-Key")
}

// auth gates a handler behind tenant authentication. The table is
// loaded per request (one atomic load) rather than captured at route
// time, so a SIGHUP tenant reload takes effect on the very next
// request. On an open daemon (nil table) the request passes through.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tbl := s.tenants.Load()
		if tbl == nil {
			h(w, r)
			return
		}
		tn := tbl.authenticate(requestKey(r))
		if tn == nil {
			jobs.WriteCode(w, http.StatusUnauthorized, "unauthorized",
				"missing or unknown API key (send \"Authorization: Bearer <key>\" or \"X-API-Key: <key>\")")
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn)))
	}
}

// requestTenant returns the authenticated tenant (nil on an open
// daemon, or with no request).
func requestTenant(r *http.Request) *tenant {
	if r == nil {
		return nil
	}
	tn, _ := r.Context().Value(tenantCtxKey{}).(*tenant)
	return tn
}

// authorize enforces cancel/resume ownership: with tenants configured, a
// job may only be acted on by the tenant that submitted it.
func (s *Server) authorize(r *http.Request, j *job) error {
	tbl := s.tenants.Load()
	if tbl == nil {
		return nil
	}
	if owner := j.Snapshot().Tenant; !tbl.canCancel(requestTenant(r), owner) {
		return jobs.Forbidden("job %s belongs to tenant %s", j.Rec.ID, owner)
	}
	return nil
}
