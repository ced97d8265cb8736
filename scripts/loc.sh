#!/usr/bin/env bash
# loc.sh — non-test Go lines per package of the root module, then their total.
#
# Usage: scripts/loc.sh
#
# Counts every line, blank and comment lines included, of each package's
# non-test .go files as `go list` selects them for this platform. The
# benchmark module under bench/ has its own go.mod and is not counted. It
# takes no flags.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 0 ]; then
	echo "usage: $0" >&2
	exit 2
fi
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... |
	while read -r pkg files; do
		if [ -n "$files" ]; then
			# shellcheck disable=SC2086 # files is a space-separated path list
			printf '%7d %s\n' "$(cat $files | wc -l)" "$pkg"
		fi
	done |
	awk '{ print; total += $1 } END { printf "%7d total\n", total }'
