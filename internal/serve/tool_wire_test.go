package serve

// Wire-level tests for the unified tool-selection API: the "tool" enum and
// the "tool_config" object are the only way to select and tune the
// instrumentation, legacy boolean selectors are unknown fields and come back
// as the strict decoder's 400 (for /v1/check and for items inside
// /v1/batch), config-less
// tools reject tool_config, the DTO round-trips through JSON, and a shadow
// check's report body matches a direct facade run byte-for-byte.

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func TestCheckShadowSync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, prog := range []string{"ill-sum", "quad-root", "variance-1pass"} {
		prog := prog
		t.Run(prog, func(t *testing.T) {
			req := CheckRequest{Prog: prog, Tool: "shadow", Wait: true}
			code, v, _ := post(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("status = %d, want 200", code)
			}
			if v.Status != StatusDone || v.Tool != "shadow" {
				t.Fatalf("job = %+v, want done shadow", v)
			}
			if v.Shadow == nil {
				t.Fatal("done shadow job carries no shadow report")
			}
			if len(v.Shadow.Findings) == 0 {
				t.Fatalf("shadow report over %s has no findings", prog)
			}
			if v.Detector != nil || v.Analyzer != nil {
				t.Fatal("shadow job leaked another tool's report")
			}
		})
	}
}

func TestCheckShadowMatchesFacade(t *testing.T) {
	// The service's shadow report body must byte-equal a direct facade run
	// with the same tool_config — no drift between the wire and the library.
	_, ts := newTestServer(t, Config{Workers: 2})
	req := CheckRequest{
		Prog:       "ill-sum",
		Tool:       "shadow",
		ToolConfig: &ToolConfig{SigBits: 4, CancelBits: 30},
	}
	want := syncToolBody(t, req)
	req.Wait = true
	code, v, _ := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	got, err := json.Marshal(v.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	var wantView JobView
	if err := json.Unmarshal(want, &wantView.Shadow); err != nil {
		t.Fatalf("facade shadow body %s: %v", want, err)
	}
	wantBytes, _ := json.Marshal(wantView.Shadow)
	if string(got) != string(wantBytes) {
		t.Errorf("service shadow report differs from the facade run:\n  %s\n  %s", got, wantBytes)
	}
}

func TestToolConfigRejectedForConfiglessTools(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tool := range []string{"binfpe", "memcheck", "plain"} {
		code, _, eb := post(t, ts.URL, CheckRequest{
			Prog: "myocyte", Tool: tool, ToolConfig: &ToolConfig{Verbose: true}, Wait: true,
		})
		if code != http.StatusBadRequest {
			t.Errorf("%s with tool_config: status = %d, want 400", tool, code)
		}
		if !strings.Contains(eb.Error, "takes no tool_config") {
			t.Errorf("%s error = %q, want a tool_config rejection", tool, eb.Error)
		}
	}
}

func TestUnknownToolRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, _, eb := post(t, ts.URL, CheckRequest{Prog: "myocyte", Tool: "sanitize", Wait: true})
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if !strings.Contains(eb.Error, "unknown tool") {
		t.Fatalf("error = %q, want an unknown-tool message", eb.Error)
	}
}

// legacyPost sends a raw JSON body (one the typed CheckRequest can no longer
// express) and returns status + decoded error body.
func legacyPost(t *testing.T, url, path, body string) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, eb
}

// TestLegacyBooleanSelectorMaps422 keeps its historical name; the retired
// per-tool boolean selectors used to map to 422 with a migration hint and
// are now ordinary unknown fields, rejected with 400 naming the key.
func TestLegacyBooleanSelectorMaps422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, key string
	}{
		{"analyzer true", `{"prog": "myocyte", "analyzer": true, "wait": true}`, `"analyzer"`},
		{"detector false", `{"prog": "myocyte", "detector": false, "wait": true}`, `"detector"`},
		{"shadow boolean", `{"prog": "ill-sum", "shadow": true, "wait": true}`, `"shadow"`},
		{"several at once", `{"prog": "myocyte", "binfpe": true, "plain": false}`, `"binfpe"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, eb := legacyPost(t, ts.URL, "/v1/check", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", code)
			}
			if !strings.Contains(eb.Error, "unknown field "+tc.key) {
				t.Fatalf("error = %q, want an unknown-field error naming %s", eb.Error, tc.key)
			}
		})
	}
}

// TestLegacyBooleanSelectorInBatchItemMaps422 keeps its historical name; a
// retired boolean selector inside a batch item is an unknown field too.
func TestLegacyBooleanSelectorInBatchItemMaps422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"items": [{"prog": "myocyte"}, {"prog": "GRAMSCHM", "analyzer": true}], "wait": true}`
	code, eb := legacyPost(t, ts.URL, "/v1/batch", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if !strings.Contains(eb.Error, `unknown field "analyzer"`) {
		t.Fatalf("error = %q, want an unknown-field error naming the item key", eb.Error)
	}
}

func TestUnknownFieldStillPlain400(t *testing.T) {
	// Typos get the same strict-decode 400 as retired keys.
	_, ts := newTestServer(t, Config{Workers: 1})
	code, eb := legacyPost(t, ts.URL, "/v1/check", `{"prog": "myocyte", "tol": "shadow"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if !strings.Contains(eb.Error, `unknown field "tol"`) {
		t.Fatalf("error = %q, want an unknown-field error naming the key", eb.Error)
	}
}

func TestToolConfigJSONRoundTrip(t *testing.T) {
	req := CheckRequest{
		Prog: "variance-1pass",
		Tool: "shadow",
		ToolConfig: &ToolConfig{
			Verbose:            true,
			SigBits:            4,
			CancelBits:         30,
			MaxFindingsPerSite: 2,
		},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tool":"shadow"`, `"sig_bits":4`, `"cancel_bits":30`, `"max_findings_per_site":2`, `"verbose":true`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("encoded request %s missing %s", raw, field)
		}
	}
	var back CheckRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("round trip drifted:\n  %+v\n  %+v", req, back)
	}
}
