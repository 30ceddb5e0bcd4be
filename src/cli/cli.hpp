/// \file
/// The `pwcet` command-line driver.
///
/// Thin, stream-parameterized entry point so the whole CLI — argument
/// parsing, subcommand dispatch, error rendering — is unit-testable
/// in-process (tests/cli_test.cpp runs it against string streams and
/// asserts byte-identity with the programmatic API). The installed binary
/// (tools/pwcet/main.cpp) is a three-line wrapper around run().
///
/// Subcommands:
///   - `run <spec.json>`       execute a campaign spec and emit its report
///   - `merge <spec.json>`     reassemble a sharded campaign's fragments
///   - `describe <spec.json>`  print the expanded job grid without running
///   - `list`                  built-in tasks / mechanisms / engines / kinds
///   - `cache stats|clear`     inspect or empty an artifact cache directory
///
/// Exit codes: 0 on success, 1 for runtime failures (malformed spec,
/// unreadable file, I/O error — always with a diagnostic naming the
/// offending field on stderr), 2 for usage errors.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace pwcet::cli {

/// Executes one CLI invocation. `args` is argv without the program name;
/// machine-readable output (reports, listings) goes to `out`, diagnostics
/// and progress summaries to `err`.
/// \return the process exit code (0 success, 1 failure, 2 usage error).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace pwcet::cli
