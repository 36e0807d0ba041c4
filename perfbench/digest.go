package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"fxa"
	"fxa/internal/serve"
)

// referenceDigests holds the expected output digest of every cell the
// benchmark can run, keyed by cellKey. Regenerate it with
// -update-digests after a change that is meant to alter simulated
// results.
//
//go:embed digests.json
var referenceDigests []byte

// digest is the first 16 bytes of SHA-256 over v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16]), nil
}

// summaryDigest digests a sampling summary without its run statistics
// (host timings and allocation counts), which differ between runs of
// the same schedule.
func summaryDigest(s fxa.SamplingSummary) (string, error) {
	s.Sweep = fxa.SweepStats{}
	return digest(s)
}

// digests is a set of reference digests keyed by cell.
type digests map[string]string

func loadDigests(b []byte) (digests, error) {
	d := digests{}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return d, nil
}

// check compares got against the reference for key and describes a
// mismatch ("" when they agree).
func (d digests) check(key, got string) string {
	want, ok := d[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no reference digest", key)
	case want != got:
		return fmt.Sprintf("%s: digest %s, reference %s", key, got, want)
	}
	return ""
}

// save writes d as indented JSON (encoding/json sorts map keys).
func (d digests) save(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("encode digests: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// updateDigests computes every reference digest locally and writes them
// to path: the eval-sweep cells, the sample-skip summaries, and every
// cell and sampled job serve-mix can send.
func updateDigests(ctx context.Context, path string, workers int) error {
	d := digests{}
	cells := evalCells(fxa.AllModels())
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	p, err := sweepPass(ctx, cells, order, workers, nil, "")
	if err != nil {
		return err
	}
	for i, c := range cells {
		if d[c.key("eval", evalInsts)], err = digest(p.results[i]); err != nil {
			return err
		}
	}
	sums, _, err := samplePass(ctx, order[:len(samplePairs)], workers, nil, "")
	if err != nil {
		return err
	}
	for i, s := range sums {
		if d[samplePairs[i].key()], err = summaryDigest(s); err != nil {
			return err
		}
	}
	specs := serveUniverse()
	for _, c := range evalCells(fxa.AllModels()) {
		specs = append(specs, serve.JobSpec{Model: c.m.Name, Workload: c.w.Name, Sample: &serveSample})
	}
	keys := make([]string, len(specs))
	err = forEach(ctx, workers, len(specs), func(i int) error {
		_, dg, err := localAnswer(ctx, specs[i])
		keys[i] = dg
		return err
	})
	if err != nil {
		return err
	}
	for i, s := range specs {
		d[serveKey(s)] = keys[i]
	}
	return d.save(path)
}
