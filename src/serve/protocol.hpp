#pragma once
// Wire protocol of the stencil service: one JSON object per line over a
// Unix-domain stream socket.
//
// Requests:
//   {"op":"submit","tenant":"a","kernel":"const2d","nx":256,"ny":256,
//    "t":32,"seed":7,...}                        -> job result object
//   {"op":"stats"}                               -> scheduler stats object
//   {"op":"ping"}                                -> {"ok":true,"op":"pong"}
//   {"op":"shutdown"}                            -> drain, then exit
//   {"op":"shutdown","cancel":true}              -> cancel queued jobs too
//
// Responses always carry "ok" plus, for submits, the JobResult fields
// ("status" is "done"/"rejected"/"cancelled"/"failed"). The grid checksum
// travels as a 16-digit hex *string* — JSON numbers are doubles and cannot
// round-trip 64 bits. It is the position-keyed sum Σ_i checksum_step(i, v_i)
// mod 2^64 over the final grid (serve/exec.hpp; it replaced FNV-1a under
// the same field name): bijective per index, position-keyed, and the same
// at every thread count and shard split. Parsing reuses the dependency-free
// tune JSON reader; a malformed line yields a typed error response, never a
// dropped connection.

#include <string>

#include "serve/job.hpp"

namespace cats::serve {

struct Request {
  enum class Op : std::uint8_t { Submit, Stats, Ping, Shutdown };
  Op op = Op::Ping;
  bool cancel = false;  ///< Shutdown only: cancel queued jobs instead of draining
  JobRequest job;       ///< Submit only
};

/// Parse one request line. Returns false and sets `err` on malformed JSON,
/// unknown op/kernel/scheme, or cap violations (validate_job).
bool parse_request(const std::string& line, Request* out, std::string* err);

/// Encode a request as a single line (no trailing newline).
std::string encode_request(const Request& rq);

/// Encode a submit response (no trailing newline).
std::string encode_result(const JobResult& r);

/// Parse a submit response line back into a JobResult (client side).
bool parse_result(const std::string& line, JobResult* out, std::string* err);

/// Scheme wire names ("auto", "naive", "cats1", ...).
const char* scheme_wire_name(Scheme s);
bool parse_scheme(const std::string& s, Scheme* out);

}  // namespace cats::serve
