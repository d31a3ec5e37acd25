#!/usr/bin/env bash
# Full command-line pipeline on the generated toy corpus:
# prepare -> train -> eval -> ablate -> sweep, all seeded and manifested.
#
# Run from the repository root:
#   bash demos/cli_walkthrough.sh
set -euo pipefail

WORK=$(mktemp -d -t nirrec-cli-XXXXXX)
echo "working under $WORK"

python3 - "$WORK" <<'EOF'
import sys
from pathlib import Path
from nirrec.datagen import write_toy_dataset
write_toy_dataset(Path(sys.argv[1]) / "data")
EOF

NIRREC="python3 -m nirrec.cli"

# One config file for every command: each reads the keys of the stages it
# runs (prepare, training, evaluation), and a flag overrides the file.
cat > "$WORK/run.cfg" <<'EOF'
boundary_days = 7
epochs = 15
eval_mode = sampled
repeats = 3
EOF
CFG=(--config "$WORK/run.cfg")

echo; echo "== prepare =="
$NIRREC prepare "$WORK/data/sessions.jsonl" "$WORK/data/catalog.jsonl" \
    --out "$WORK/shards" --seed 0 "${CFG[@]}"

echo; echo "== train (lambda=0.5, gamma=0.3) =="
$NIRREC train "$WORK/shards" --out "$WORK/run" --seed 0 "${CFG[@]}"

echo; echo "== eval (sampled attention, 3 repeats) =="
$NIRREC eval "$WORK/shards" "$WORK/run/checkpoint.bin" \
    --out "$WORK/metrics" --k 1,5,20 --seed 0 "${CFG[@]}"

echo; echo "== ablation: soft attention only =="
$NIRREC ablate "$WORK/shards" --which no_beta \
    --out "$WORK/ablate_no_beta" --seed 0 "${CFG[@]}"

echo; echo "== lambda sweep over the default grid =="
$NIRREC sweep "$WORK/shards" --param lambda --epochs 5 \
    --out "$WORK/sweep" --seed 0 "${CFG[@]}"
cat "$WORK/sweep/plotdata.csv"

echo; echo "== artifacts =="
find "$WORK" -name 'manifest.json' | sort
