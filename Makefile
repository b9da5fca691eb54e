.PHONY: all build test fmt doc bench bench-json clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# API documentation (needs odoc; CI treats odoc warnings as errors).
doc:
	dune build @doc
	@echo open _build/default/_doc/_html/index.html

bench:
	dune exec bench/main.exe

# Machine-readable results (Report schema v4) for archiving in CI.
bench-json:
	mkdir -p _artifacts
	dune exec bench/main.exe -- --json > _artifacts/results.json
	@echo wrote _artifacts/results.json

clean:
	dune clean
	rm -rf _artifacts
