// Golden equivalence suite for persistent fault surfaces: weight-memory
// and quant-param campaigns must fold a PersistentOutcome byte-identical
// at 1/2/default workers, on both backends, with and without repair.
// Sequences shard across workers but fold in sequence order through
// SequenceResult.Apply, so the aggregate — counters and latency
// distributions alike — is pinned to the single-worker reference.
package ranger_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ranger"
	"ranger/internal/models"
)

// persistentGoldenSequences keeps the sweep fast: sequence seeding,
// detector sharding, repair, and the fold are exercised by a handful of
// sequences per campaign.
const persistentGoldenSequences = 6

// persistentDetector profiles activation maxima on the campaign inputs
// and wraps them in the symptom detector persistent sequences judge
// against.
func persistentDetector(t *testing.T, m *models.Model, feeds []ranger.Feeds) ranger.Detector {
	t.Helper()
	bounds, err := ranger.ProfileModel(m, ranger.ProfileOptions{}, len(feeds), func(i int) (ranger.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	maxima := make(map[string]float64, len(bounds))
	for name, bd := range bounds {
		maxima[name] = bd.High
	}
	return ranger.NewSymptomDetector(maxima, 1)
}

// TestGoldenPersistentWeightCampaignWorkers pins the fp32 weight-memory
// surface across worker counts, with repair on and off.
func TestGoldenPersistentWeightCampaignWorkers(t *testing.T) {
	for _, name := range []string{"lenet", "dave"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			feeds := campaignFeeds(t, m)
			det := persistentDetector(t, m, feeds)
			run := func(workers, laneWidth int, repair bool) ranger.PersistentOutcome {
				c := &ranger.Campaign{
					Model: m, Trials: persistentGoldenSequences, Seed: 2027,
					Workers: workers, LaneWidth: laneWidth, Surface: ranger.WeightSurface{},
					SequenceLen: 4, Repair: repair, Detector: det,
				}
				out, err := c.RunPersistent(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			for _, repair := range []bool{false, true} {
				want := run(1, 1, repair)
				if want.Sequences != persistentGoldenSequences {
					t.Fatalf("repair=%v: ran %d sequences", repair, want.Sequences)
				}
				for _, workers := range []int{1, 2, 0} {
					for _, lanes := range []int{1, 8} {
						if got := run(workers, lanes, repair); !reflect.DeepEqual(want, got) {
							t.Fatalf("repair=%v workers=%d lanes=%d: outcome %+v != %+v", repair, workers, lanes, got, want)
						}
					}
				}
			}
		})
	}
}

// TestGoldenPersistentInt8CampaignWorkers pins the int8 persistent
// surfaces — stored-weight faults and quant-param faults — across
// worker counts.
func TestGoldenPersistentInt8CampaignWorkers(t *testing.T) {
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	feeds := campaignFeeds(t, m)
	calib, err := ranger.CalibrateModel(m, len(feeds), func(i int) (ranger.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	det := persistentDetector(t, m, feeds)
	for _, surf := range []ranger.Surface{ranger.WeightSurface{}, ranger.QuantParamSurface{}} {
		surf := surf
		t.Run(surf.Name(), func(t *testing.T) {
			run := func(workers, laneWidth int) ranger.PersistentOutcome {
				c := &ranger.Campaign{
					Model: m, Trials: persistentGoldenSequences, Seed: 2027,
					Scenario: ranger.BitFlipInt8{Flips: 1}, Calibration: calib,
					Workers: workers, LaneWidth: laneWidth, Surface: surf,
					SequenceLen: 4, Repair: true, Detector: det,
				}
				out, err := c.RunPersistent(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(1, 1)
			if want.Sequences != persistentGoldenSequences {
				t.Fatalf("ran %d sequences", want.Sequences)
			}
			for _, workers := range []int{1, 2, 0} {
				for _, lanes := range []int{1, 8} {
					if got := run(workers, lanes); !reflect.DeepEqual(want, got) {
						t.Fatalf("workers=%d lanes=%d: outcome %+v != %+v", workers, lanes, got, want)
					}
				}
			}
		})
	}
}

// stratifiedPersistentPins are SHA-256 digests of outcomeBytes over the
// stratified persistent campaigns TestGoldenPersistentStratified runs.
// They pin round allocation, stratum ordering, sequence seeding and the
// per-stratum fold, not just worker-count invariance.
var stratifiedPersistentPins = map[string]string{
	"fp32/weight/stratified":     "5065642a39bf250d4143160cfdc6eba7596a3231a80c16cf51ca72f3431d9323",
	"fp32/weight/worstcase":      "334531a3c4fc9f41fb188d4744f1cd2661a30c0709e5707e415f396a0a2e60e4",
	"int8/quantparam/stratified": "a5d7a025b6ab9fdc8d7afd4ed035f6f174e99c7d42e5cc0d6ce49ef15f7e37a2",
	"int8/quantparam/worstcase":  "d688379fa077c35a1263fc21754700f8b0c0b85f5663c11be766105c4ee5d5f3",
}

// TestGoldenPersistentStratified pins stratified persistent campaigns
// byte-exactly: both adaptive modes on the fp32 weight surface and the
// int8 quant-param surface, with budgets spanning several 256-sequence
// rounds so allocation after the first round depends on the evidence
// folded so far.
func TestGoldenPersistentStratified(t *testing.T) {
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	feeds := campaignFeeds(t, m)
	calib, err := ranger.CalibrateModel(m, len(feeds), func(i int) (ranger.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	det := persistentDetector(t, m, feeds)
	modes := []struct {
		name string
		mode ranger.SamplingMode
	}{{"stratified", ranger.AdaptiveStratified}, {"worstcase", ranger.AdaptiveWorstCase}}
	for _, md := range modes {
		for _, int8Backend := range []bool{false, true} {
			c := &ranger.Campaign{
				Model: m, Trials: 600, Seed: 2031, Workers: 2,
				SequenceLen: 2, Repair: true, Detector: det,
				Adaptive: md.mode,
			}
			key := "fp32/weight/" + md.name
			if int8Backend {
				key = "int8/quantparam/" + md.name
				c.Surface = ranger.QuantParamSurface{}
				c.Scenario = ranger.BitFlipInt8{Flips: 1}
				c.Calibration = calib
				c.CITarget, c.Strata = 0.1, 2
			} else {
				c.Surface = ranger.WeightSurface{} // default CITarget and Strata
			}
			out, err := c.RunPersistent(context.Background(), feeds)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if out.Rounds < 2 || len(out.Strata) == 0 {
				t.Fatalf("%s: %d rounds over %d strata; the pin needs several rounds", key, out.Rounds, len(out.Strata))
			}
			sum := sha256.Sum256(outcomeBytes(reflect.ValueOf(out), nil))
			if got, want := hex.EncodeToString(sum[:]), stratifiedPersistentPins[key]; got != want {
				t.Errorf("%s: outcome digest %s, pinned %s (%d sequences, %d rounds, %d strata)",
					key, got, want, out.Sequences, out.Rounds, len(out.Strata))
			}
		}
	}
}

// outcomeBytes appends a byte-exact encoding of v: integers as 64-bit
// little-endian words, floats by their IEEE-754 bits, strings and
// slices length-prefixed, struct fields in declaration order.
func outcomeBytes(v reflect.Value, b []byte) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = outcomeBytes(v.Index(i), b)
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = outcomeBytes(v.Field(i), b)
		}
		return b
	}
	panic(fmt.Sprintf("outcomeBytes: unhandled kind %s", v.Kind()))
}
