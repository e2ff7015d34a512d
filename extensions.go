package serviceordering

import (
	"serviceordering/internal/calibrate"
	"serviceordering/internal/model"
	"serviceordering/internal/robust"
	"serviceordering/internal/trace"
)

// This file exposes the library's extensions beyond the paper's core
// algorithm: search tracing, parameter calibration from observed
// executions, plan-stability analysis, and plan explanation.

// Extension types, re-exported from their internal packages.
type (
	// TraceRecorder collects per-action search events (Options.Tracer).
	TraceRecorder = trace.Recorder

	// TraceEvent is one recorded search action.
	TraceEvent = trace.Event

	// Estimator fits cost-model parameters from observed executions.
	Estimator = calibrate.Estimator

	// RobustConfig parameterizes a plan-stability analysis; RobustPoint
	// is the measurement at one perturbation scale.
	RobustConfig = robust.Config
	RobustPoint  = robust.Point

	// PlanAnalysis is the per-stage explanation of a plan's cost.
	PlanAnalysis = model.Analysis
)

// NewTraceRecorder builds a ring-buffer recorder for Options.Tracer,
// keeping the most recent capacity events.
func NewTraceRecorder(capacity int) (*TraceRecorder, error) {
	return trace.NewRecorder(capacity)
}

// NewEstimator builds a calibration estimator for n services; feed it
// executed plans with ObserveSim and fit a Query with Estimate.
func NewEstimator(n int) (*Estimator, error) { return calibrate.NewEstimator(n) }

// CoveringPlans proposes a near-minimal set of plans whose executions
// observe every directed transfer edge, for full calibration.
func CoveringPlans(n int) []Plan { return calibrate.CoveringPlans(n) }

// CalibrateFromSim profiles a ground-truth query by simulating every
// covering plan and returns the fitted instance.
func CalibrateFromSim(truth *Query, cfg SimConfig) (*Query, error) {
	return calibrate.CalibrateFromSim(truth, cfg)
}

// AnalyzeRobustness measures how stable a plan is under multiplicative
// parameter drift, re-optimizing exactly at every sampled perturbation.
func AnalyzeRobustness(q *Query, plan Plan, cfg RobustConfig) ([]RobustPoint, error) {
	return robust.Analyze(q, plan, cfg)
}

// DefaultRobustConfig probes five drift scales with 30 samples each.
func DefaultRobustConfig() RobustConfig { return robust.DefaultConfig() }
