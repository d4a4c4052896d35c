// Sync-graph analyzers over a VerificationSession (DESIGN.md §10).
//
// The §3.1 protocol's liveness rests on static properties of the sync
// graph: every backend needs a positive effective lookahead δ_j·T (or
// window grants stop dead), every message type the gateway can emit must
// have a registered delay on every attached backend (ConservativeSync::push
// throws on undeclared types — at runtime, possibly hours in), and a
// session needs at least one backend.  All of that is checkable before the
// first network event runs; these analyzers do so.
#pragma once

#include "src/castanet/session.hpp"
#include "src/lint/diagnostic.hpp"

namespace castanet::lint {

/// Runs every sync rule on `session` (its gateway, params and attached
/// backends) and appends findings to `report`.  Call after every attach(),
/// as analyze_session does.
void analyze_session_sync(cosim::VerificationSession& session,
                          Report& report);

}  // namespace castanet::lint
