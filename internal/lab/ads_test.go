package lab

import (
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// adScenario is a 4-topic market [health, sports, insects, electronics]
// with a pharma company, a sports shop (which also sells repellent, so
// insect queries have a natural home once pharma's campaign ends) and an
// electronics store.
func adScenario() Scenario {
	return Scenario{
		Name: "ads", Seed: 7, Duration: 600, Window: 50,
		Policy: policy.Spec{Kind: policy.SbQA},
		Workload: Workload{Ads: &AdSpec{Rate: 4, Advertisers: []AdvertiserSpec{
			{Name: "pharma", Interests: []float64{1, 0, 0.15, 0}, TargetRate: 1},
			{Name: "sports", Interests: []float64{0.2, 1, 0.4, 0}, TargetRate: 1},
			{Name: "electro", Interests: []float64{0, 0, 0, 1}, TargetRate: 1},
		}}},
	}
}

// placements runs sc and hands every placement to onWin, after setup.
func placements(t *testing.T, sc Scenario, setup func(*world), onWin func(q model.Query, topic int, winner *advertiser)) (*world, int) {
	t.Helper()
	w, r := runWorld(t, sc, func(w *world) {
		if setup != nil {
			setup(w)
		}
		w.ads.onWin = func(q model.Query, topic vector, winner *advertiser) {
			onWin(q, dominantTopic(topic), winner)
		}
	})
	return w, r.Mediated
}

func TestAdsValidation(t *testing.T) {
	sc := adScenario()
	sc.Workload.Ads.Advertisers = []AdvertiserSpec{{Name: "none"}}
	if _, err := Run(sc); err == nil {
		t.Error("zero topics accepted")
	}
}

func TestPlacementsFollowRelevance(t *testing.T) {
	type win struct {
		a     model.ProviderID
		topic int
	}
	wins := map[win]int{}
	_, n := placements(t, adScenario(), nil, func(_ model.Query, topic int, winner *advertiser) {
		wins[win{winner.id, topic}]++
	})
	if n == 0 {
		t.Fatal("no placements")
	}
	// Health queries (topic 0) should mostly land on pharma, sports
	// (topic 1) on the sports shop, electronics (topic 3) on electro.
	const pharma, sports, electro = 0, 1, 2
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
	// The paper's story: during the promotion the pharma company is "more
	// interested in treating the queries related to mosquitoes or insect
	// bites"; once over, "its intentions may change".
	const campaignEnd = 300.0
	var during, after int
	var insectDuring, insectAfter int
	placements(t, adScenario(), func(w *world) {
		w.ads.advertisers[0].interests.addCampaign(campaign{
			boost: vector{0, 0, 5, 0},
			until: campaignEnd,
		})
	}, func(q model.Query, topic int, winner *advertiser) {
		isInsect := topic == 2
		if q.IssuedAt < campaignEnd {
			if isInsect {
				insectDuring++
				if winner.id == 0 {
					during++
				}
			}
		} else if isInsect {
			insectAfter++
			if winner.id == 0 {
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

func TestPacingSmoothsDelivery(t *testing.T) {
	// Two identical advertisers: pacing (utilization) should split a
	// single-topic stream roughly evenly rather than starving one. Target
	// rates exceed each advertiser's fair share of the stream, so pacing
	// utilization stays below the cap and remains informative.
	sc := Scenario{
		Name: "pacing", Seed: 9, Duration: 500, Window: 50,
		Policy: policy.Spec{Kind: policy.SbQA, Kn: 1},
		Workload: Workload{Ads: &AdSpec{Rate: 4, Advertisers: []AdvertiserSpec{
			{Name: "a", Interests: []float64{1}, TargetRate: 4},
			{Name: "b", Interests: []float64{1}, TargetRate: 4},
		}}},
	}
	wins := map[model.ProviderID]int{}
	_, total := placements(t, sc, nil, func(_ model.Query, _ int, winner *advertiser) { wins[winner.id]++ })
	if total == 0 {
		t.Fatal("no placements")
	}
	ratio := float64(wins[0]) / float64(wins[0]+wins[1])
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("pacing failed to balance identical advertisers: %d vs %d", wins[0], wins[1])
	}
}
