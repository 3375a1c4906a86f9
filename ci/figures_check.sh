#!/usr/bin/env bash
# Figure-digest check: regenerate the seed-1 fast figures whose output is
# deterministic (fig6, fig7c, fig8b and explain; about 10 s on two cores)
# and require each file to match its digest in ci/figures.sha256 byte for
# byte. A missing file fails too. fig7a and fig8a are deterministic as
# well but take 20 s and 16 s, so they are checked by hand. A change
# that moves a verdict on purpose updates ci/figures.sha256 and says so
# in CHANGES.md.
set -euo pipefail

root=$(pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go build -o "$out/gretel" ./cmd/gretel
for exp in fig6 fig7c fig8b explain; do
  "$out/gretel" experiments -exp "$exp" -seed 1 -fast -out "$out/figs" >/dev/null
done
cd "$out/figs"
sha256sum --strict -c "$root/ci/figures.sha256"
