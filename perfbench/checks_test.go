package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"gpufpx/pkg/gpufpx"
)

func TestCheckPaperRejectsCorruptRegeneration(t *testing.T) {
	good := paperOut{cycles: wantSweepCycles, hangs: wantHangs, digest: [32]byte{1}}
	ref := good.digest
	if err := checkPaper(good, &ref); err != nil {
		t.Fatalf("good regeneration rejected: %v", err)
	}
	bad := map[string]paperOut{
		"cycles": {cycles: wantSweepCycles + 1, hangs: wantHangs, digest: ref},
		"hangs":  {cycles: wantSweepCycles, hangs: wantHangs - 1, digest: ref},
		"digest": {cycles: wantSweepCycles, hangs: wantHangs, digest: [32]byte{2}},
		"error":  {cycles: wantSweepCycles, hangs: wantHangs, digest: ref, err: context.Canceled},
	}
	for name, o := range bad {
		if checkPaper(o, &ref) == nil {
			t.Errorf("corrupt %s accepted", name)
		}
	}
}

func TestCheckMixBodyRejectsCorruptReply(t *testing.T) {
	det := gpufpx.DetectorReport{Schema: 1, Counts: map[string]int{"FP32/NaN": 1}, Severe: 1}
	tail, err := expectedTail(&gpufpx.Report{Tool: "detector", Cycles: 1234, Launches: 2, Detector: &det})
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(nil), idHead...), "j000042"...)
	body = append(body, tail...)
	if err := checkMixBody(http.StatusOK, body, tail); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)-10] ^= 1
	cases := map[string]struct {
		status int
		body   []byte
	}{
		"status":    {http.StatusTooManyRequests, body},
		"byte":      {http.StatusOK, flipped},
		"truncated": {http.StatusOK, body[:len(body)-2]},
		"no id":     {http.StatusOK, tail},
	}
	for name, c := range cases {
		if checkMixBody(c.status, c.body, tail) == nil {
			t.Errorf("corrupt reply (%s) accepted", name)
		}
	}
}

// plantedBody renders a job view with one detector record.
func plantedBody(t *testing.T, status, kernel string, pc int, exc string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"id": "j000001", "status": status,
		"detector": map[string]any{"records": []map[string]any{{"pc": pc, "exception": exc, "kernel": kernel}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckPlantedRejectsMissingException(t *testing.T) {
	l := genListing(9, 3)
	if err := checkPlanted(http.StatusOK, plantedBody(t, "done", l.Name, l.PlantPC, l.PlantExc), l); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	cases := map[string]struct {
		status int
		body   []byte
	}{
		"pc":        {http.StatusOK, plantedBody(t, "done", l.Name, l.PlantPC+1, l.PlantExc)},
		"exception": {http.StatusOK, plantedBody(t, "done", l.Name, l.PlantPC, "XXX")},
		"kernel":    {http.StatusOK, plantedBody(t, "done", "other.sass", l.PlantPC, l.PlantExc)},
		"job":       {http.StatusOK, plantedBody(t, "failed", l.Name, l.PlantPC, l.PlantExc)},
		"status":    {http.StatusServiceUnavailable, plantedBody(t, "done", l.Name, l.PlantPC, l.PlantExc)},
		"garbage":   {http.StatusOK, []byte("{")},
	}
	for name, c := range cases {
		if checkPlanted(c.status, c.body, l) == nil {
			t.Errorf("corrupt reply (%s) accepted", name)
		}
	}
}

func TestCheckProfileRejectsCorruptProfile(t *testing.T) {
	mk := func(sites int) *gpufpx.ProfileReport {
		p := &gpufpx.ProfileReport{Schema: 1}
		for i := 0; i < sites; i++ {
			p.Sites = append(p.Sites, gpufpx.SiteProfile{PC: i, Trials: campaignTrialsPerSite, Masked: campaignTrialsPerSite})
		}
		p.Totals = gpufpx.ProfileTotals{Trials: sites * campaignTrialsPerSite, Masked: sites * campaignTrialsPerSite}
		return p
	}
	for prog, sites := range campaignSites {
		if err := checkProfile(prog, mk(sites), []byte("a"), []byte("a")); err != nil {
			t.Fatalf("good %s profile rejected: %v", prog, err)
		}
	}
	good := mk(32)
	short := mk(32)
	short.Totals.Trials--
	siteShort := mk(32)
	siteShort.Sites[1].Trials--
	cases := map[string]struct {
		prog     string
		p        *gpufpx.ProfileReport
		enc, ref string
	}{
		"totals":   {"GRAMSCHM", short, "a", "a"},
		"site sum": {"GRAMSCHM", siteShort, "a", "a"},
		// A self-consistent profile that dropped strikeable sites: its
		// totals equal its own sites × trials, but not the pinned plan.
		"too few sites":  {"GRAMSCHM", mk(31), "a", "a"},
		"dropped sites":  {"diff-squares", mk(8), "a", "a"},
		"no sites":       {"interval", mk(0), "a", "a"},
		"too many":       {"diff-squares", mk(10), "a", "a"},
		"unplanned prog": {"myocyte", good, "a", "a"},
		"bytes":          {"GRAMSCHM", good, "a", "b"},
		"truncated":      {"GRAMSCHM", good, "a", ""},
	}
	for name, c := range cases {
		if checkProfile(c.prog, c.p, []byte(c.enc), []byte(c.ref)) == nil {
			t.Errorf("corrupt profile (%s) accepted", name)
		}
	}
	plan := 0
	for _, prog := range campaignProgs {
		plan += campaignSites[prog] * campaignTrialsPerSite * len(campaignTools)
	}
	if plan != 1168 {
		t.Errorf("one pass plans %d trials, want BENCH_7's 1168", plan)
	}
}

func TestGeneratedListingsAreSeededUniqueAndPlanted(t *testing.T) {
	if genListing(5, 7) != genListing(5, 7) {
		t.Fatal("same seed and number gave different listings")
	}
	seen := make(map[string]bool)
	for n := 0; n < 48; n++ {
		l := genListing(5, n)
		if seen[l.Text] {
			t.Fatalf("listing %d repeats an earlier one", n)
		}
		seen[l.Text] = true
		rep, err := gpufpx.New().Run(context.Background(), gpufpx.SASSText(l.Name, l.Text, l.Grid, l.Block))
		if err != nil {
			t.Fatalf("listing %d: %v\n%s", n, err, l.Text)
		}
		if err := plantedIn(rep, l); err != nil {
			t.Fatalf("listing %d: %v\n%s", n, err, l.Text)
		}
	}
	if genListing(6, 0).Text == genListing(5, 0).Text {
		t.Fatal("different seeds gave the same listing")
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 3, Name: "b", Start: 4 * ms, End: 5 * ms},
	}
	rows := layerTable(spans)
	want := map[string][2]time.Duration{"op": {10 * ms, 5 * ms}, "a": {6 * ms, 5 * ms}, "b": {ms, ms}}
	for _, r := range rows {
		w := want[r.Name]
		if r.Busy != w[0] || r.Self != w[1] {
			t.Errorf("%s: busy %v self %v, want %v %v", r.Name, r.Busy, r.Self, w[0], w[1])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
}

func TestDeckDealsEveryCardOncePerShuffle(t *testing.T) {
	d := newDeck(3, 10)
	for round := 0; round < 3; round++ {
		seen := make(map[int]bool)
		for i := 0; i < 10; i++ {
			seen[d.next()] = true
		}
		if len(seen) != 10 {
			t.Fatalf("round %d dealt %d distinct cards, want 10", round, len(seen))
		}
	}
}

func TestPairUpCancelsOrderAdvantage(t *testing.T) {
	// Tracing costs 2 ms; the second op of every pair runs 1 ms faster.
	// Ops go untraced, traced, traced, untraced, as tracedOp orders them.
	seq := []float64{10, 10 + 2 - 1, 10 + 2, 10 - 1}
	for k, want := range []bool{false, true, true, false} {
		if tracedOp(k) != want {
			t.Fatalf("tracedOp(%d) = %v, want %v", k, !want, want)
		}
	}
	un, tr, over := pairUp([][]float64{seq, seq[:3]})
	if over != 2 {
		t.Errorf("overhead %v, want 2", over)
	}
	if len(un) != 3 || len(tr) != 3 || tr[1] != 12 || un[1] != 9 {
		t.Errorf("untraced %v traced %v", un, tr)
	}
}
