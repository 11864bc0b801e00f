#!/bin/sh
# Pre-merge check: gofmt, vet, the repo's custom analyzer suite, the
# optional external linters, and the full test suite under the race
# detector. Equivalent to `make check`, for environments without make.
set -eu
cd "$(dirname "$0")/.."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists unformatted files:"
	echo "$unformatted"
	exit 1
fi
go vet ./...
go run ./cmd/esr-lint ./...
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi
if command -v golangci-lint >/dev/null 2>&1; then
	golangci-lint run
else
	echo "golangci-lint not installed; skipping"
fi
go test -race ./...
