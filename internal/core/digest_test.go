package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// digestSink encodes every record it receives into one canonical line.
// Floats are written as their IEEE-754 bits, so the digest pins every
// sampled value exactly, not a rounding of it.
type digestSink struct{ lines []string }

func (d *digestSink) Ping(r dataset.PingRecord) error {
	d.lines = append(d.lines, fmt.Sprintf("P|%s|%s|%d|%x|%d|%d",
		encodeVP(r.VP), encodeTarget(r.Target), r.Protocol, math.Float64bits(r.RTTms), r.Cycle, r.VTime))
	return nil
}

func (d *digestSink) Trace(r dataset.TracerouteRecord) error {
	var b strings.Builder
	fmt.Fprintf(&b, "T|%s|%s|%d|%d", encodeVP(r.VP), encodeTarget(r.Target), r.Cycle, r.VTime)
	for _, h := range r.Hops {
		fmt.Fprintf(&b, "|%d,%d,%x,%t", h.TTL, h.IP, math.Float64bits(h.RTTms), h.Responded)
	}
	d.lines = append(d.lines, b.String())
	return nil
}

func (d *digestSink) Close() error { return nil }

func encodeVP(v dataset.VantagePoint) string {
	return fmt.Sprintf("%s,%s,%s,%d,%d,%d", v.ProbeID, v.Platform, v.Country, v.Continent, v.ISP, v.Access)
}

func encodeTarget(t dataset.Target) string {
	return fmt.Sprintf("%s,%s,%s,%d,%d", t.Region, t.Provider, t.Country, t.Continent, t.IP)
}

// sum is the SHA-256 over the sorted encodings: record arrival order
// depends on worker scheduling, the record set does not.
func (d *digestSink) sum() string {
	sort.Strings(d.lines)
	h := sha256.New()
	for _, l := range d.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCountries keeps the pinned campaigns near a second: every
// continent, the Fig. 6a cable-cut sources, and the countries of the
// paper's peering case studies.
var digestCountries = []string{"DE", "GB", "UA", "US", "BR", "JP", "IN", "BH", "AU", "ZA", "KE", "EG"}

// TestCampaignRecordDigest pins every ping and traceroute record both
// campaigns emit over digestCountries, bit for bit. Any change to the
// data plane — world lookups, path planning, RNG streams, fault and
// event injection — that moves a single sampled value fails here. The second case routes
// records through the fault injector and a cable-cut scenario, so the
// Faults and Events branches of the simulator are pinned too.
func TestCampaignRecordDigest(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		want  string
		count int
	}{
		{
			name:  "fault-free",
			cfg:   Config{Seed: 3, Scale: 0.01, Cycles: 2, TargetsPerProbe: 3},
			want:  "aff87ca2cd1a994fd7a8ddfbf1f50dadcabe9144931c99f3bc12914775d4fa99",
			count: 31356,
		},
		{
			name: "flaky-wireless+cable-cut",
			cfg: Config{Seed: 5, Scale: 0.01, Cycles: 2, TargetsPerProbe: 3,
				FaultProfile: "flaky-wireless", Scenario: "cable-cut"},
			want:  "c9aeb0433075fc05f89bc4a8433c2101fd76765d55580154c307dac0cf30cdb5",
			count: 30895,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setup, err := Prepare(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sink := &digestSink{}
			if _, _, _, err := setup.RunCampaignsOver(context.Background(), digestCountries, sink); err != nil {
				t.Fatal(err)
			}
			if len(sink.lines) != tc.count {
				t.Errorf("records = %d, want %d", len(sink.lines), tc.count)
			}
			if got := sink.sum(); got != tc.want {
				t.Errorf("record digest = %s, want %s", got, tc.want)
			}
		})
	}
}
