#!/usr/bin/env bash
# Run both routing conditions against both dataset slices on a real
# chat-completions endpoint and print the accuracy grid as markdown.
#
# This is the optional live reproduction: it needs network access, a real
# model, and an API key. Expect accuracy near the reference values quoted in
# README.md, not exactly at them; live model output is not deterministic.
# Each cell's route report goes to stderr and to $IVR_OUT/route-*.log; stdout
# holds the grid alone. A cell whose route fails ends the script with
# route's exit code, before the grid is printed.
#
# Required environment:
#   IVR_ENDPOINT_URL   chat-completions endpoint, e.g. https://api.example.com/v1/chat/completions
#   IVR_MODEL          routing model name, e.g. gpt-4.1-mini
#   IVR_LLM_API_KEY    bearer token for the endpoint
# Optional:
#   IVR_OUT            output directory for run artifacts (default: live-runs)
#   IVR_RPS            client-side requests-per-second cap (default: 2)
#   IVR_MAX_IN_FLIGHT  concurrent request cap (default: 4)
#   IVR_LENIENT=1      salvage one path token from prose replies

set -euo pipefail

: "${IVR_ENDPOINT_URL:?set IVR_ENDPOINT_URL to a chat-completions endpoint}"
: "${IVR_MODEL:?set IVR_MODEL to the routing model name}"
: "${IVR_LLM_API_KEY:?set IVR_LLM_API_KEY to the endpoint bearer token}"

OUT="${IVR_OUT:-live-runs}"
RPS="${IVR_RPS:-2}"
MAX_IN_FLIGHT="${IVR_MAX_IN_FLIGHT:-4}"
LENIENT_FLAG=""
if [ "${IVR_LENIENT:-0}" = "1" ]; then
  LENIENT_FLAG="--lenient"
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MENU="$ROOT/src/ivroute/data/agentnet.menu.json"
DATASET="$ROOT/src/ivroute/data/agentnet.intents.jsonl"
mkdir -p "$OUT"

run_cell() {
  condition="$1"
  filter="$2"
  python3 -m ivroute.cli route \
    --menu "$MENU" \
    --dataset "$DATASET" \
    --condition "$condition" \
    --filter "$filter" \
    --provider http \
    --endpoint "$IVR_ENDPOINT_URL" \
    --model "$IVR_MODEL" \
    --rps "$RPS" \
    --max-in-flight "$MAX_IN_FLIGHT" \
    $LENIENT_FLAG \
    --force \
    --out "$OUT" | tee "$OUT/route-$condition-$filter.log" >&2
}

# "routed N intents, accuracy XX.XX%" -> XX.XX
accuracy() {
  sed -n 's/.*accuracy \([0-9.]*\)%.*/\1/p' "$OUT/route-$1-$2.log"
}

echo "routing 2 conditions x 2 dataset slices with $IVR_MODEL ..." >&2
for condition in flattened descriptive; do
  for filter in base_only all; do
    run_cell "$condition" "$filter"
  done
done

echo
echo "### Routing accuracy (%): $IVR_MODEL"
echo
echo "| IVR Context | Base Only (N=230) | Augmented (N=920) |"
echo "| --- | --- | --- |"
echo "| Flattened Paths | $(accuracy flattened base_only) | $(accuracy flattened all) |"
echo "| Descriptive Menu | $(accuracy descriptive base_only) | $(accuracy descriptive all) |"
