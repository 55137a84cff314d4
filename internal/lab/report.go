package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Report is the typed outcome of one scenario run. It is pure data with a
// stable serialization: Encode marshals with sorted struct order and no
// timestamps, wall-clock readings, or map-order dependence, so the same
// Scenario always produces byte-identical bytes (and Hash). Every number in
// it is derived from the virtual clock and the engine's own state.
type Report struct {
	// Scenario echoes the normalized scenario that produced this report.
	Scenario Scenario `json:"scenario"`

	// Population totals.
	Participants int `json:"participants"`
	Providers    int `json:"providers"`
	Consumers    int `json:"consumers"`

	// Query totals. Issued counts arrivals handed to the engine; Mediated
	// the successful allocations; Rejected the mediation errors (e.g. no
	// candidates during a churn trough); Completed / Failed / InFlight the
	// execution outcomes inside the horizon (failed = timed out on a
	// free-rider; in-flight = still executing when the horizon closed).
	Issued   int `json:"issued"`
	Mediated int `json:"mediated"`
	Rejected int `json:"rejected"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	InFlight  int `json:"in_flight"`

	// QoS-station ledger (runs with a MediationRate only; omitted otherwise).
	// Shed counts admissions the scheduler refused, by total and by reason
	// ("deadline", "queue_full", "brownout"); Queued is the station backlog
	// (queued + in service) when the horizon closed. Conservation holds:
	// issued == mediated + rejected + shed + queued.
	Shed         int            `json:"shed,omitempty"`
	ShedByReason map[string]int `json:"shed_by_reason,omitempty"`
	Queued       int            `json:"queued,omitempty"`

	// Queue wait summary over every query the station served (seconds).
	QueueWaitMean float64 `json:"queue_wait_mean,omitempty"`
	QueueWaitP99  float64 `json:"queue_wait_p99,omitempty"`

	// Response-time summary over completed executions (simulated seconds).
	MeanResponse float64 `json:"mean_response"`
	P99Response  float64 `json:"p99_response"`

	// End-state satisfaction means over the whole population (a volunteer
	// run's online participants).
	ConsumerSatisfaction float64 `json:"consumer_satisfaction"`
	ConsumerAdequation   float64 `json:"consumer_adequation"`
	ProviderSatisfaction float64 `json:"provider_satisfaction"`

	// Allocation shares by provider behavior (fractions of all
	// provider-allocations; zero population ⇒ zero share).
	Shares BehaviorShares `json:"shares"`

	// GiniUtilization is the Gini coefficient of per-provider busy-time
	// utilization — 0 is perfectly even use of the fleet.
	GiniUtilization float64 `json:"gini_utilization"`

	// Starved counts providers that finished the run online with zero
	// lifetime allocations; StarvedFrac normalizes by the fleet size.
	Starved     int     `json:"starved"`
	StarvedFrac float64 `json:"starved_frac"`

	// Trajectory samples global state every Scenario.SampleEvery; queue
	// gauges scan a deterministic stride of at most 4096 providers (the
	// full fleet when it is small).
	Trajectory []TrajectoryPoint `json:"trajectory"`

	// Volunteers is a volunteer run's outcome (Workload.Volunteers only).
	// There Rejected counts unallocated queries, Failed the queries whose
	// replicas could not reach their quorum, InFlight those still awaiting
	// it, and P99Response interpolates between ranks. An ad run counts
	// each user query as mediated or, when its slot stays empty, rejected.
	Volunteers *VolunteerReport `json:"volunteers,omitempty"`

	// Classes reports per-class outcomes, in scenario class order.
	// Per-class δs/δa trajectories are included when the scenario has at
	// most 32 classes (beyond that they would dominate the report; the
	// aggregate trajectory is always present).
	Classes []ClassReport `json:"classes"`
}

// BehaviorShares are allocation fractions by provider behavior.
type BehaviorShares struct {
	Honest      float64 `json:"honest"`
	FreeRider   float64 `json:"free_rider"`
	OverClaimer float64 `json:"over_claimer"`
	Malicious   float64 `json:"malicious"`
}

// TrajectoryPoint is one global sample.
type TrajectoryPoint struct {
	T float64 `json:"t"`

	// Mean consumer δs / δa and provider δs at T (consumers fully
	// enumerated; providers strided at scale, see Report.Trajectory; a
	// volunteer run averages its online participants only).
	ConsumerDS float64 `json:"consumer_ds"`
	ConsumerDA float64 `json:"consumer_da"`
	ProviderDS float64 `json:"provider_ds"`

	// Queue depth over the sampled providers.
	QueueMean float64 `json:"queue_mean"`
	QueueMax  int     `json:"queue_max"`

	// Online providers (the churn signal) and cumulative issued queries.
	Online int `json:"online"`
	Issued int `json:"issued"`

	// The volunteer gauges (Workload.Volunteers runs only): the Gini of
	// provider δs, the mean and spread of provider utilization, and the
	// online consumers.
	ProviderSatGini float64 `json:"provider_sat_gini,omitempty"`
	Utilization     float64 `json:"utilization,omitempty"`
	UtilizationSD   float64 `json:"utilization_sd,omitempty"`
	OnlineConsumers int     `json:"online_consumers,omitempty"`
}

// ClassReport is one class's outcome.
type ClassReport struct {
	Name string `json:"name"`

	Issued    int `json:"issued"`
	Mediated  int `json:"mediated"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// QoS-station ledger for this class (runs with a MediationRate only).
	Shed          int            `json:"shed,omitempty"`
	ShedByReason  map[string]int `json:"shed_by_reason,omitempty"`
	QueueWaitMean float64        `json:"queue_wait_mean,omitempty"`
	QueueWaitP99  float64        `json:"queue_wait_p99,omitempty"`

	MeanResponse float64 `json:"mean_response"`
	P99Response  float64 `json:"p99_response"`

	// End-state satisfaction means over the class's consumers.
	ConsumerDS float64 `json:"consumer_ds"`
	ConsumerDA float64 `json:"consumer_da"`

	// Shares are allocation fractions by behavior within the class.
	Shares BehaviorShares `json:"shares"`

	// Starved providers of this class (zero allocations, online at end).
	Starved int `json:"starved"`

	// Trajectory is the class's δs/δa over time (small scenarios only;
	// see Report.Classes).
	Trajectory []ClassPoint `json:"trajectory,omitempty"`
}

// ClassPoint is one per-class trajectory sample.
type ClassPoint struct {
	T  float64 `json:"t"`
	DS float64 `json:"ds"`
	DA float64 `json:"da"`
}

// Encode returns the report's canonical byte serialization (indented JSON;
// struct fields marshal in declaration order, which Go guarantees stable).
func (r *Report) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Hash returns the SHA-256 of Encode as a hex string — the determinism
// check's currency: same scenario ⇒ same hash.
func (r *Report) Hash() (string, error) {
	b, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
