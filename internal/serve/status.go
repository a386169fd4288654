package serve

import "mpmcs4fta/internal/maxsat"

// The outcome taxonomy, stated once for every surface that reports an
// analysis result — the mpmcsd HTTP service, the mpmcs4fta CLI and the
// wpms solver front-end. Each row is one verdict; the columns are how
// that verdict is spelled on each surface.
//
//	verdict                       JSON status   HTTP   mpmcs4fta exit   wpms exit ("s" line)
//	proven optimum                OPTIMAL       200    0                30 ("OPTIMUM FOUND")
//	anytime incumbent (gap +      FEASIBLE      200    10               10 ("SATISFIABLE")
//	  probabilityUpperBound set)
//	no cut set exists             INFEASIBLE    200*   20               20 ("UNSATISFIABLE")
//	deadline, nothing to report   NO_ANSWER     504    4                 0 ("UNKNOWN")
//	malformed input / usage       INVALID       400    2                 0
//	internal failure              ERROR         500    1                 0
//	server shutting down          UNAVAILABLE   503    1                 0
//	no cached result (lookup)     NOT_FOUND     404    1                 0
//
// UNAVAILABLE and NOT_FOUND are service verdicts about the request,
// not the tree: they only appear on the HTTP surface (the CLIs map
// them to the generic error exit) and are never definitive.
//
// (*) INFEASIBLE is a successful, definitive answer about the tree —
// the service returns 200 with an explicit empty-cut-set document, not
// an error status. Only OPTIMAL and INFEASIBLE verdicts are definitive
// and therefore cacheable; FEASIBLE and NO_ANSWER are budget artefacts
// that a different deadline could change. ftdiff keeps its own
// contract (0 agreement, 1 divergence, 2 usage), documented in the
// README.
const (
	StatusOptimal    = "OPTIMAL"    // = maxsat.Optimal.String()
	StatusFeasible   = "FEASIBLE"   // = maxsat.Feasible.String()
	StatusInfeasible = "INFEASIBLE" // = maxsat.Infeasible.String()
	StatusNoAnswer   = "NO_ANSWER"
	StatusInvalid    = "INVALID"
	StatusError      = "ERROR"
	// StatusUnavailable is the shutdown verdict: the server no longer
	// accepts work, so the request was refused, not answered.
	StatusUnavailable = "UNAVAILABLE"
	// StatusNotFound is the cache-lookup miss verdict: the service
	// remembers results, not trees, and this hash has none.
	StatusNotFound = "NOT_FOUND"
)

// mpmcs4fta process exit codes, one per taxonomy row.
const (
	ExitOK         = 0
	ExitError      = 1
	ExitUsage      = 2
	ExitNoAnswer   = 4
	ExitFeasible   = 10
	ExitInfeasible = 20
)

// ExitCode maps a JSON status string to the mpmcs4fta exit code.
func ExitCode(status string) int {
	switch status {
	case StatusOptimal:
		return ExitOK
	case StatusFeasible:
		return ExitFeasible
	case StatusInfeasible:
		return ExitInfeasible
	case StatusNoAnswer:
		return ExitNoAnswer
	case StatusInvalid:
		return ExitUsage
	default:
		return ExitError
	}
}

// HTTPStatus maps a JSON status string to the mpmcsd response code.
func HTTPStatus(status string) int {
	switch status {
	case StatusOptimal, StatusFeasible, StatusInfeasible:
		return 200
	case StatusNoAnswer:
		return 504
	case StatusInvalid:
		return 400
	case StatusUnavailable:
		return 503
	case StatusNotFound:
		return 404
	default:
		return 500
	}
}

// WPMSExitCode maps a solver status to the MaxSAT-evaluation exit code
// the wpms command reports: 30 optimum, 20 unsatisfiable, 10
// satisfiable (anytime incumbent), 0 unknown.
func WPMSExitCode(status maxsat.Status) int {
	switch status {
	case maxsat.Optimal:
		return 30
	case maxsat.Infeasible:
		return 20
	case maxsat.Feasible:
		return 10
	default:
		return 0
	}
}

// Definitive reports whether a status is a proven verdict about the
// instance (rather than a budget artefact) and therefore safe to
// cache: OPTIMAL and INFEASIBLE only.
func Definitive(status string) bool {
	return status == StatusOptimal || status == StatusInfeasible
}
