# Sourced by the determinism gates (check_determinism.sh,
# check_store_concurrency.sh): the results-JSON lines that may differ
# between two runs of the same suite, and a filter that drops them.
#
#   wall_seconds, base_seconds, vp_seconds, checkpoint_seconds
#                      host timing
#   jobs               the recorded worker count
#   progress_instructions
#                      progress-hook tally, sampled on a wall-clock
#                      cadence
#   trace_format, trace_instructions
#                      per-trace metadata: stable run to run, but
#                      stripped so the gates also diff cleanly against
#                      JSON written before those fields existed
#   store_hits, store_misses, store_seconds
#                      checkpoint-store traffic: a second run hits the
#                      entries the first one published
#
# The schema pretty-prints one field per line (docs/results_schema.md),
# which is what keeps this a line filter.

STRIP_TIMING_FIELDS='wall_seconds|base_seconds|vp_seconds|checkpoint_seconds|jobs|trace_format|trace_instructions|progress_instructions|store_hits|store_misses|store_seconds'

# strip_timing <json>: the file without its run-dependent lines.
strip_timing() {
    grep -vE "\"($STRIP_TIMING_FIELDS)\"" "$1"
}
