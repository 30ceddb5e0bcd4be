/// \file
/// Declarative campaign-spec files: JSON (de)serialization of CampaignSpec.
///
/// A spec file is one JSON object naming the sweep axes and scalar knobs of
/// a CampaignSpec (see docs/campaign-spec.md for the full reference). The
/// loader is strict by design: unknown keys, wrong types, bad enum values,
/// out-of-range numbers and unknown task names are all rejected with a
/// SpecError whose message carries the source name, the line and the field
/// path of the offence — a spec file that loads is guaranteed to pass
/// CampaignSpec::validate(), so the abort-style contract checks downstream
/// can never fire on user input.
///
/// Round-trip contract: for any valid spec S, parsing spec_to_json(S)
/// yields a spec with the same campaign_spec_key — i.e. the file format
/// captures every field that influences campaign results. The shipped
/// specs under specs/ rely on this to be byte-equivalent stand-ins for the
/// programmatic campaigns they replaced (tests/spec_io_test.cpp pins both
/// directions).
#pragma once

#include <stdexcept>
#include <string>

#include "engine/campaign.hpp"

namespace pwcet {

/// Error raised for any malformed spec file. what() is a ready-to-print,
/// single-line diagnostic of the form
///   `<source>:<line>: <problem> (field "<path>")`.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A parsed spec file: the campaign plus the file's display metadata
/// (`name`, `notes`), which never influence results or store keys.
struct SpecDocument {
  std::string name;   ///< optional human-readable title ("" if absent)
  std::string notes;  ///< optional free-text description ("" if absent)
  CampaignSpec spec;  ///< validated campaign, ready for run_campaign
};

/// Parses a spec from JSON text. `source` names the origin in diagnostics
/// (a file path, or something like "<inline>" for tests).
/// \throws SpecError on any syntactic or semantic problem.
SpecDocument parse_spec(const std::string& text, const std::string& source);

/// Reads and parses a spec file.
/// \throws SpecError if the file cannot be read or does not parse.
SpecDocument load_spec(const std::string& path);

/// Serializes a spec to canonical JSON (2-space indent, fixed key order,
/// doubles in their shortest decimal form that still round-trips
/// bit-exactly). `name` and `notes` are emitted only when non-empty.
std::string spec_to_json(const CampaignSpec& spec, const std::string& name = "",
                         const std::string& notes = "");

}  // namespace pwcet
