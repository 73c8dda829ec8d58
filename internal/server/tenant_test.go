package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestParseTenants(t *testing.T) {
	cfgs, err := ParseTenants("sweeps:sk-1; ops:sk-2 ;solo:sk-3")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{{"sweeps", "sk-1"}, {"ops", "sk-2"}, {"solo", "sk-3"}}
	if !reflect.DeepEqual(cfgs, want) {
		t.Errorf("parsed %+v, want %+v", cfgs, want)
	}
	if got, err := ParseTenants(""); err != nil || got != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", got, err)
	}
	for _, bad := range []string{
		"noname",    // no key
		"a:k1;a:k2", // duplicate name
		"a:k1;b:k1", // duplicate key
		":k1",       // empty name
		"a:",        // empty key
		// Nothing follows the key: every tenant waits in the one FIFO, so the
		// old scheduling clauses are refused rather than ignored.
		"a:k1:weight=3",
		"a:k1:prio=high",
		"a:k1:quota=8",
		"a:k1:shininess=1",
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

	// Cancelling is a write too: refused without a key, done with one.
	resp, v = postRunWithKey(t, ts, longSpec, "", "ka")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed submit = %d", resp.StatusCode)
	}
	kr, err := http.Post(ts.URL+"/v1/runs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	kr.Body.Close()
	if kr.StatusCode != http.StatusUnauthorized {
		t.Errorf("keyless cancel = %d, want 401", kr.StatusCode)
	}
	cancelRunWithKey(t, ts, v.ID, "ka")
	if got := waitTerminal(t, ts, v.ID); got.Status != StatusCancelled {
		t.Errorf("keyed cancel ended the job %s, want cancelled", got.Status)
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
		`spbd_tenant_submitted_total{tenant="default"}`,
		`spbd_tenant_completed_total{tenant="default"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics on a standalone daemon is missing %s", want)
		}
	}
}
