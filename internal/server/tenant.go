package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
)

// Tenants: when the daemon is configured with tenants, every work-submitting
// request (submit, batch, cancel) must carry a tenant API key
// (X-Spb-Api-Key or Authorization: Bearer), and the jobs it admits are
// labelled with the tenant's name in the job view, the journal and the
// per-tenant metrics. A tenant is a key and nothing more: every job waits in
// the one FIFO queue. With no tenants configured everything runs as the
// implicit "default" tenant with no key required.

// TenantKeyHeader carries the tenant API key.
const TenantKeyHeader = "X-Spb-Api-Key"

// TenantConfig declares one tenant.
type TenantConfig struct {
	// Name labels the tenant in job views, the journal, metrics and logs.
	Name string
	// Key is the API key clients present. Must be unique across tenants.
	Key string
}

// ParseTenants parses the -tenants flag grammar: semicolon-separated
// "name:key" clauses.
//
//	sweeps:sk-sweep-1;ops:sk-ops-9
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	names := map[string]bool{}
	keys := map[string]bool{}
	for _, clause := range strings.Split(spec, ";") {
		if clause = strings.TrimSpace(clause); clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("tenant clause %q: want name:key", clause)
		}
		tc := TenantConfig{Name: strings.TrimSpace(parts[0]), Key: strings.TrimSpace(parts[1])}
		if tc.Name == "" || tc.Key == "" {
			return nil, fmt.Errorf("tenant clause %q: empty name or key", clause)
		}
		if names[tc.Name] {
			return nil, fmt.Errorf("duplicate tenant name %q", tc.Name)
		}
		if keys[tc.Key] {
			return nil, fmt.Errorf("duplicate tenant key for %q", tc.Name)
		}
		names[tc.Name], keys[tc.Key] = true, true
		out = append(out, tc)
	}
	return out, nil
}

// tenantState is a tenant's runtime accounting.
type tenantState struct {
	TenantConfig

	submitted atomic.Uint64 // jobs accepted onto the queue
	completed atomic.Uint64 // admitted jobs that reached a terminal state
}

// Sentinel tenant errors, answered with 401 by the handlers.
var (
	errNoAPIKey  = errors.New("server: missing API key (tenants are configured; send " + TenantKeyHeader + ")")
	errBadAPIKey = errors.New("server: unknown API key")
)

// initTenants builds the runtime tenant table. The implicit default tenant
// always exists; it serves all traffic when no tenants are configured (and
// its metrics keep the spbd_tenant_* series present on single-user daemons).
func (s *Server) initTenants(cfgs []TenantConfig) error {
	s.tenants = make(map[string]*tenantState, len(cfgs))
	s.defaultTenant = &tenantState{TenantConfig: TenantConfig{Name: "default"}}
	for _, tc := range cfgs {
		if _, dup := s.tenants[tc.Key]; dup {
			return fmt.Errorf("server: duplicate tenant key for %q", tc.Name)
		}
		ts := &tenantState{TenantConfig: tc}
		s.tenants[tc.Key] = ts
		s.tenantList = append(s.tenantList, ts)
	}
	if len(s.tenantList) == 0 {
		s.tenantList = []*tenantState{s.defaultTenant}
	}
	sort.Slice(s.tenantList, func(i, j int) bool { return s.tenantList[i].Name < s.tenantList[j].Name })
	return nil
}

// tenantFor resolves the request's tenant. With no tenants configured every
// request maps to the implicit default tenant; otherwise a missing or
// unknown key is a 401.
func (s *Server) tenantFor(r *http.Request) (*tenantState, error) {
	if len(s.tenants) == 0 {
		return s.defaultTenant, nil
	}
	key := r.Header.Get(TenantKeyHeader)
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
		}
	}
	if key == "" {
		return nil, errNoAPIKey
	}
	ts, ok := s.tenants[key]
	if !ok {
		return nil, errBadAPIKey
	}
	return ts, nil
}
