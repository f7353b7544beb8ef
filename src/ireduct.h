// Umbrella header: the full public API of the iReduct library.
//
// Fine-grained headers remain the preferred includes inside the library
// itself (include-what-you-use); this header is a convenience for
// downstream applications.
#ifndef IREDUCT_IREDUCT_H_
#define IREDUCT_IREDUCT_H_

#include "algorithms/dwork.h"              // IWYU pragma: export
#include "algorithms/geometric.h"          // IWYU pragma: export
#include "algorithms/ireduct.h"            // IWYU pragma: export
#include "algorithms/iresamp.h"            // IWYU pragma: export
#include "algorithms/mechanism.h"          // IWYU pragma: export
#include "algorithms/mechanism_registry.h" // IWYU pragma: export
#include "algorithms/oracle.h"             // IWYU pragma: export
#include "algorithms/proportional.h"       // IWYU pragma: export
#include "algorithms/selection.h"          // IWYU pragma: export
#include "algorithms/strategy_mechanism.h" // IWYU pragma: export
#include "algorithms/two_phase.h"          // IWYU pragma: export
#include "classifier/cross_validation.h"   // IWYU pragma: export
#include "classifier/naive_bayes.h"        // IWYU pragma: export
#include "common/random.h"                 // IWYU pragma: export
#include "common/result.h"                 // IWYU pragma: export
#include "common/status.h"                 // IWYU pragma: export
#include "data/census_generator.h"         // IWYU pragma: export
#include "data/columnar.h"                 // IWYU pragma: export
#include "data/csv.h"                      // IWYU pragma: export
#include "data/dataset.h"                  // IWYU pragma: export
#include "data/schema.h"                   // IWYU pragma: export
#include "common/fault.h"                  // IWYU pragma: export
#include "dp/checkpoint.h"                 // IWYU pragma: export
#include "dp/confidence.h"                 // IWYU pragma: export
#include "dp/laplace_coupling.h"           // IWYU pragma: export
#include "dp/laplace_mechanism.h"          // IWYU pragma: export
#include "dp/ledger_journal.h"             // IWYU pragma: export
#include "dp/noise_down.h"                 // IWYU pragma: export
#include "dp/noise_down_chain.h"           // IWYU pragma: export
#include "dp/privacy_accountant.h"         // IWYU pragma: export
#include "dp/workload.h"                   // IWYU pragma: export
#include "eval/experiment.h"               // IWYU pragma: export
#include "eval/metrics.h"                  // IWYU pragma: export
#include "eval/privacy_audit.h"            // IWYU pragma: export
#include "eval/report.h"                   // IWYU pragma: export
#include "eval/run_report.h"               // IWYU pragma: export
#include "eval/sanity_bounds.h"            // IWYU pragma: export
#include "eval/stats.h"                    // IWYU pragma: export
#include "eval/table_printer.h"            // IWYU pragma: export
#include "marginals/marginal.h"            // IWYU pragma: export
#include "marginals/marginal_set.h"        // IWYU pragma: export
#include "marginals/consistency.h"         // IWYU pragma: export
#include "marginals/marginal_workload.h"   // IWYU pragma: export
#include "marginals/postprocess.h"         // IWYU pragma: export
#include "marginals/synthetic.h"           // IWYU pragma: export
#include "obs/event_log.h"                 // IWYU pragma: export
#include "obs/export_prometheus.h"         // IWYU pragma: export
#include "obs/json.h"                      // IWYU pragma: export
#include "obs/log.h"                       // IWYU pragma: export
#include "obs/metrics.h"                   // IWYU pragma: export
#include "queries/linear_workload.h"       // IWYU pragma: export
#include "queries/predicate.h"             // IWYU pragma: export
#include "queries/range_workload.h"        // IWYU pragma: export
#include "queries/strategy.h"              // IWYU pragma: export
#include "service/private_session.h"       // IWYU pragma: export
#include "service/query_server.h"          // IWYU pragma: export
#include "service/wire.h"                  // IWYU pragma: export

#endif  // IREDUCT_IREDUCT_H_
