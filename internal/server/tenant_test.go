package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	cfgs, err := ParseTenants("sweeps:sk-1:weight=4:prio=low:quota=8; ops:sk-2:prio=high ;solo:sk-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(cfgs))
	}
	if cfgs[0].Name != "sweeps" || cfgs[0].Key != "sk-1" || cfgs[0].Weight != 4 ||
		cfgs[0].Priority != "low" || cfgs[0].MaxActive != 8 {
		t.Errorf("sweeps parsed as %+v", cfgs[0])
	}
	if cfgs[1].lane() != LaneHigh {
		t.Errorf("ops lane = %d, want high", cfgs[1].lane())
	}
	if cfgs[2].Weight != 1 || cfgs[2].lane() != LaneNormal {
		t.Errorf("solo defaults wrong: %+v", cfgs[2])
	}

	if got, err := ParseTenants(""); err != nil || got != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", got, err)
	}
	for _, bad := range []string{
		"noname",            // no key
		"a:k1;a:k2",         // duplicate name
		"a:k1;b:k1",         // duplicate key
		"a:k1:weight=0",     // weight below 1
		"a:k1:prio=urgent",  // unknown lane
		"a:k1:quota=-3",     // bad quota
		"a:k1:shininess=11", // unknown option
		"a:k1:weight",       // option without value
		":k1",               // empty name
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted, want error", bad)
		}
	}
}

func postRunWithKey(t *testing.T, ts *httptest.Server, req RunRequest, query, key string) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if key != "" {
		hr.Header.Set(TenantKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad response %s: %v", data, err)
		}
	}
	return resp, v
}

func TestTenantAuth(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "alice", Key: "ka"},
	}})

	resp, _ := postRun(t, ts, smallSpec, "?wait=1") // no key
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("keyless submit = %d, want 401", resp.StatusCode)
	}
	resp, _ = postRunWithKey(t, ts, smallSpec, "?wait=1", "wrong")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad-key submit = %d, want 401", resp.StatusCode)
	}
	resp, v := postRunWithKey(t, ts, smallSpec, "?wait=1", "ka")
	if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("good-key submit = %d (%s)", resp.StatusCode, v.Status)
	}
	if v.Tenant != "alice" {
		t.Errorf("job tenant = %q, want alice", v.Tenant)
	}

	// Bearer form works too.
	body, _ := json.Marshal(smallSpec)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	hr.Header.Set("Authorization", "Bearer ka")
	br, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusOK {
		t.Errorf("bearer submit = %d, want 200", br.StatusCode)
	}
}

func cancelRunWithKey(t *testing.T, ts *httptest.Server, id, key string) {
	t.Helper()
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/"+id+"/cancel", nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(TenantKeyHeader, key)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("keyed cancel of %s = %d", id, resp.StatusCode)
	}
}

func TestTenantQuota(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 16, Tenants: []TenantConfig{
		{Name: "capped", Key: "kc", MaxActive: 1},
	}})

	// One outstanding long job fills the quota.
	resp, v1 := postRunWithKey(t, ts, longSpec, "", "kc")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	waitStatus(t, ts, v1.ID, StatusRunning)

	over := longSpec
	over.Seed = 99
	resp, _ = postRunWithKey(t, ts, over, "", "kc")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 carries no Retry-After")
	}
	if s.Metrics().QuotaRejected.Load() == 0 {
		t.Error("QuotaRejected counter did not advance")
	}

	// A keyless cancel must be refused while tenants are configured.
	kr, err := http.Post(ts.URL+"/v1/runs/"+v1.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	kr.Body.Close()
	if kr.StatusCode != http.StatusUnauthorized {
		t.Errorf("keyless cancel = %d, want 401", kr.StatusCode)
	}

	// Cancelling the job returns the slot in its ending; the
	// rejected spec now fits.
	cancelRunWithKey(t, ts, v1.ID, "kc")
	var v2 JobView
	waitCluster(t, 5*time.Second, "quota slot to free", func() bool {
		r, v := postRunWithKey(t, ts, over, "", "kc")
		if r.StatusCode == http.StatusAccepted {
			v2 = v
			return true
		}
		return false
	})
	cancelRunWithKey(t, ts, v2.ID, "kc") // don't leave the long point running into cleanup
}

func TestTenantMetricsAlwaysPresent(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1}) // no tenants configured
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	text, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spbd_tenant_weight{tenant="default"}`,
		`spbd_tenant_active{tenant="default"}`,
		`spbd_tenant_submitted_total{tenant="default"}`,
		`spbd_tenant_quota_rejected_all_total`,
		`spbd_cluster_peer_hits_total`,
		`spbd_cluster_steals_out_total`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics on a standalone daemon is missing %s", want)
		}
	}
}
