#!/bin/sh
# Digests a `cqfd batch` run, one line per job: the SHA-256 of the job's
# reply (its result line plus any `cert_lines=` certificate lines), with
# the run-dependent `elapsed_ms=` and `homs=` fields masked, then the job
# line itself. Replies must arrive in job order (`--workers 1`).
#
#   cqfd batch JOBS --workers 1 | sh tests/golden/digest.sh JOBS
set -eu
jobs=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
sed 's/ elapsed_ms=[0-9.]*//; s/ homs=[0-9]*//' | awk -v dir="$tmp" '
  rem > 0 { print > f; rem--; next }
  {
    if (f != "") close(f)
    n++; f = sprintf("%s/%05d", dir, n); print > f
    if (match($0, /cert_lines=[0-9]+/)) rem = substr($0, RSTART + 11, RLENGTH - 11) + 0
  }'
i=0
grep -v -e '^#' -e '^[[:space:]]*$' "$jobs" | while IFS= read -r job; do
  i=$((i + 1))
  reply=$(printf '%s/%05d' "$tmp" "$i")
  test -f "$reply" || { echo "no reply for job $i: $job" >&2; exit 1; }
  printf '%s  %s\n' "$(sha256sum < "$reply" | cut -d' ' -f1)" "$job"
done
