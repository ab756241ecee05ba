#!/bin/sh
# loc.sh — print the tracked Go line counts the ROADMAP judges by: non-test
# Go and test Go, analyzer testdata excluded.
#
# Run from the repo root: ./scripts/loc.sh (or make loc)
set -eu

count() {
	git ls-files '*.go' | grep -v '/testdata/' | grep "$1" '_test\.go$' | xargs cat | wc -l | tr -d ' '
}

echo "non-test Go: $(count -v)"
echo "test Go:     $(count -e)"
