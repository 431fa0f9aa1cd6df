#ifndef ASEQ_CLI_CLI_H_
#define ASEQ_CLI_CLI_H_

#include <atomic>
#include <ostream>
#include <string>
#include <vector>

namespace aseq {

/// Process-wide graceful-stop flag. The signal handlers installed by
/// main.cc set it on SIGINT/SIGTERM (the only async-signal-safe thing they
/// do); the run loops poll it between batches, drain in-flight work, write
/// a final checkpoint when checkpointing is enabled, and exit 0 with a
/// summary.
std::atomic<bool>& CliStopFlag();

/// \brief Entry point of the `aseq` command-line tool (testable: all I/O
/// goes through the provided streams).
///
/// Commands: run, explain, generate, compare, workload and version. The
/// flags, which commands take them, their ranges and defaults live in one
/// table in cli.cc; `aseq` with no command prints the usage derived from
/// it. Exit codes: 0 on success, 2 for a usage error or a flag the
/// command does not take, 1 for a bad flag value or a failed run.
///
/// Returns the process exit code.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace aseq

#endif  // ASEQ_CLI_CLI_H_
