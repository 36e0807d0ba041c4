package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fxa"
)

// TestPrintModels pins -list-models: every named model appears once with
// its core kind's registry name, and every kind is registered in the
// binary.
func TestPrintModels(t *testing.T) {
	want := map[string]string{
		"LITTLE":  "in-order",
		"BIG":     "out-of-order",
		"BIG+FX":  "out-of-order",
		"HALF":    "out-of-order",
		"HALF+FX": "out-of-order",
		"DUAL-SI": "dual-issue-in-order",
		"DUAL":    "dual-issue-in-order",
	}
	var buf bytes.Buffer
	printModels(&buf)
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kind, ok := want[f[0]]
		if !ok {
			continue
		}
		if seen[f[0]] {
			t.Errorf("model %s listed twice", f[0])
		}
		seen[f[0]] = true
		if f[1] != kind {
			t.Errorf("model %s: kind %q, want %q", f[0], f[1], kind)
		}
		if f[len(f)-1] != "true" {
			t.Errorf("model %s: registered = %q, want true", f[0], f[len(f)-1])
		}
	}
	if len(seen) != len(want) || len(fxa.AllModels()) != len(want) {
		t.Errorf("listed %d of %d models (fxa.AllModels has %d):\n%s", len(seen), len(want), len(fxa.AllModels()), buf.String())
	}
}

func TestParseInsts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"0", 0},
		{"12345", 12345},
		{"8k", 8_000},
		{"8K", 8_000},
		{"20M", 20_000_000},
		{"4G", 4_000_000_000},
		{"7.9M", 7_900_000},
		{"1.5k", 1_500},
		{"18446744073709551615", math.MaxUint64},
	} {
		got, err := parseInsts(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseInsts(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "k", "-1", "abc", "1.5", "0.0001k", "-1.5k", "1e3",
		"18446744073709551616", "18446744073709551615k", "20000000000G", "9e18G",
	} {
		if got, err := parseInsts(in); err == nil {
			t.Errorf("parseInsts(%q) = %d, want an error", in, got)
		}
	}
}

func TestParseSampleSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want fxa.SamplingConfig
	}{
		{"5:8k:20k", fxa.SamplingConfig{Intervals: 5, IntervalInsts: 8_000, SkipInsts: 20_000}},
		{"5:8k:20k:2k", fxa.SamplingConfig{Intervals: 5, IntervalInsts: 8_000, SkipInsts: 20_000, WarmupInsts: 2_000}},
		{"1:1:0", fxa.SamplingConfig{Intervals: 1, IntervalInsts: 1}},
		{"30:100k:7.9M:10k", fxa.SamplingConfig{Intervals: 30, IntervalInsts: 100_000, SkipInsts: 7_900_000, WarmupInsts: 10_000}},
	} {
		got, err := parseSampleSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseSampleSpec(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "5", "5:8k", "5:8k:20k:2k:1", // wrong arity
		"0:8k:20k", "2G:8k:20k", // intervals out of range
		"x:8k:20k", "5:x:20k", "5:8k:x", "5:8k:20k:x", // malformed fields
		"5:0:20k", // empty window
	} {
		if got, err := parseSampleSpec(in); err == nil {
			t.Errorf("parseSampleSpec(%q) = %+v, want an error", in, got)
		}
	}
}
