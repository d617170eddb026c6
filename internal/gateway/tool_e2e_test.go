package gateway

// Tool-selection end-to-end through the gateway: a shadow check proxied via
// the fleet returns the exact bytes a direct node request produces, and the
// gateway passes a legacy boolean selector through untouched so the node's
// 400 unknown-field answer reaches the client verbatim.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gpufpx/internal/serve"
)

func TestGatewayShadowCheckPassThrough(t *testing.T) {
	_, gw, nodes := fleet(t, 3, Config{})
	req := serve.CheckRequest{
		Prog:       "quad-root",
		Tool:       "shadow",
		ToolConfig: &serve.ToolConfig{SigBits: 4, CancelBits: 30},
	}
	code, viaGW, _ := checkVia(t, gw.URL, req)
	if code != http.StatusOK {
		t.Fatalf("gateway status = %d, want 200; body %s", code, viaGW)
	}
	var v serve.JobView
	if err := json.Unmarshal(viaGW, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tool != "shadow" || v.Shadow == nil || len(v.Shadow.Findings) == 0 {
		t.Fatalf("gateway shadow job = %+v, want a done shadow report with findings", v)
	}
	// Every node must agree byte-for-byte with the proxied response, job
	// IDs aside (they are per-node counters).
	normalize := func(raw []byte) []byte {
		var nv serve.JobView
		if err := json.Unmarshal(raw, &nv); err != nil {
			t.Fatalf("unmarshal body %s: %v", raw, err)
		}
		nv.ID = ""
		out, err := json.Marshal(nv)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i, node := range nodes {
		code, direct, _ := checkVia(t, node.URL, req)
		if code != http.StatusOK {
			t.Fatalf("node %d status = %d, want 200", i, code)
		}
		if !bytes.Equal(normalize(direct), normalize(viaGW)) {
			t.Errorf("node %d shadow response differs from the gateway's:\n  %s\n  %s", i, direct, viaGW)
		}
	}
}

func TestGatewayPassesLegacySelectorRejectionThrough(t *testing.T) {
	_, gw, _ := fleet(t, 1, Config{})
	body := `{"prog": "myocyte", "analyzer": true, "wait": true}`
	resp, err := http.Post(gw.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status through gateway = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, `unknown field "analyzer"`) {
		t.Fatalf("error through gateway = %q, want the node's unknown-field error verbatim", eb.Error)
	}
}
