package adwords

import (
	"testing"

	"sbqa/internal/core"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/topics"
)

// buildWorld returns a 4-topic world with three advertisers: a pharma
// company (health), a sports shop, and an electronics store.
func buildWorld(t *testing.T) (*World, *Advertiser) {
	t.Helper()
	w, err := NewWorld(core.MustNew(core.Config{KnBest: knbest.Params{K: 0, Kn: 0}}), Config{
		TopicDim:  4, // [health, sports, insects, electronics]
		QueryRate: 4,
		Duration:  600,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pharma := w.AddAdvertiser("pharma", topics.Vector{1, 0, 0.15, 0}, 1)
	// The sports shop also sells repellent (outdoor athletes), so insect
	// queries have a natural home once pharma's campaign ends.
	w.AddAdvertiser("sports", topics.Vector{0.2, 1, 0.4, 0}, 1)
	w.AddAdvertiser("electro", topics.Vector{0, 0, 0, 1}, 1)
	return w, pharma
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(core.MustNew(core.Config{Seed: 1}), Config{TopicDim: 0}); err == nil {
		t.Error("zero topics accepted")
	}
}

func TestPlacementsFollowRelevance(t *testing.T) {
	w, pharma := buildWorld(t)
	type win struct {
		a     *Advertiser
		topic int
	}
	wins := map[win]int{}
	placements := w.Run(func(q model.Query, winner *Advertiser) {
		wins[win{winner, w.dominantTopic(q)}]++
	})
	if placements == 0 {
		t.Fatal("no placements")
	}
	// Health queries (topic 0) should mostly land on pharma, sports
	// (topic 1) on the sports shop, electronics (topic 3) on electro.
	sports := w.Advertisers()[1]
	electro := w.Advertisers()[2]
	if wins[win{pharma, 0}] < wins[win{sports, 0}] || wins[win{pharma, 0}] < wins[win{electro, 0}] {
		t.Errorf("pharma should dominate health queries: pharma=%d sports=%d electro=%d",
			wins[win{pharma, 0}], wins[win{sports, 0}], wins[win{electro, 0}])
	}
	if wins[win{sports, 1}] < wins[win{pharma, 1}] {
		t.Errorf("sports shop should dominate sports queries")
	}
	if wins[win{electro, 3}] < wins[win{pharma, 3}] {
		t.Errorf("electronics store should dominate electronics queries")
	}
}

func TestCampaignShiftsAllocations(t *testing.T) {
	w, pharma := buildWorld(t)
	// The paper's story: during the promotion the pharma company is "more
	// interested in treating the queries related to mosquitoes or insect
	// bites"; once over, "its intentions may change".
	const campaignEnd = 300.0
	pharma.Interests().AddCampaign(topics.Campaign{
		Boost: topics.Vector{0, 0, 5, 0},
		Until: campaignEnd,
	})
	var during, after int
	var insectDuring, insectAfter int
	w.Run(func(q model.Query, winner *Advertiser) {
		isInsect := w.dominantTopic(q) == 2
		if q.IssuedAt < campaignEnd {
			if isInsect {
				insectDuring++
				if winner == pharma {
					during++
				}
			}
		} else if isInsect {
			insectAfter++
			if winner == pharma {
				after++
			}
		}
	})
	if insectDuring == 0 || insectAfter == 0 {
		t.Fatal("no insect queries sampled")
	}
	shareDuring := float64(during) / float64(insectDuring)
	shareAfter := float64(after) / float64(insectAfter)
	if shareDuring < 0.5 {
		t.Errorf("during the campaign pharma won only %.0f%% of insect queries", shareDuring*100)
	}
	if shareAfter >= shareDuring/2 {
		t.Errorf("after the campaign pharma's insect share should collapse: %.0f%% -> %.0f%%",
			shareDuring*100, shareAfter*100)
	}
}

func TestQueryMixReweighting(t *testing.T) {
	w, _ := buildWorld(t)
	copy(w.queryMix, []float64{0, 0, 1, 0}) // only insect queries
	counts := map[int]int{}
	w.Run(func(q model.Query, _ *Advertiser) {
		counts[w.dominantTopic(q)]++
	})
	if counts[2] == 0 {
		t.Fatal("no insect queries under a pure-insect mix")
	}
	for topic, c := range counts {
		if topic != 2 && c > 0 {
			t.Errorf("topic %d sampled %d times under pure-insect mix", topic, c)
		}
	}
}

func TestPacingSmoothsDelivery(t *testing.T) {
	// Two identical advertisers: pacing (utilization) should split a
	// single-topic stream roughly evenly rather than starving one.
	w, err := NewWorld(core.MustNew(core.Config{KnBest: knbest.Params{K: 0, Kn: 1}}), Config{
		TopicDim:  1,
		QueryRate: 4,
		Duration:  500,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Target rates exceed each advertiser's fair share of the stream, so
	// pacing utilization stays below the cap and remains informative.
	a := w.AddAdvertiser("a", topics.Vector{1}, 4)
	b := w.AddAdvertiser("b", topics.Vector{1}, 4)
	wins := map[*Advertiser]int{}
	total := w.Run(func(_ model.Query, winner *Advertiser) { wins[winner]++ })
	if total == 0 {
		t.Fatal("no placements")
	}
	ratio := float64(wins[a]) / float64(wins[a]+wins[b])
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("pacing failed to balance identical advertisers: %d vs %d", wins[a], wins[b])
	}
}
