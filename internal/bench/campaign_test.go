package bench

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// TestCampaignMatchesBENCH7 reruns the checked-in seed-7 campaign record
// and requires every entry to match exactly. Campaigns are deterministic,
// so any drift is a change in what a trial executes, not noise.
func TestCampaignMatchesBENCH7(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-7 campaign skipped in -short mode")
	}
	raw, err := os.ReadFile("../../BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	var want CampaignRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != 7 || want.TrialsPerSite != 8 || want.MaxSites != 32 {
		t.Fatalf("BENCH_7.json parameters = seed %d, %d trials/site, %d sites; want 7, 8, 32",
			want.Seed, want.TrialsPerSite, want.MaxSites)
	}
	got, err := Campaign(io.Discard, want.Seed, want.TrialsPerSite, want.MaxSites)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Errorf("campaign entries diverge from BENCH_7.json:\ngot  %+v\nwant %+v", got.Entries, want.Entries)
	}
}
