// Package tcc is a from-scratch Go reproduction of "Transactional
// Collection Classes" (Carlstrom, McDonald, Carbin, Kozyrakis,
// Olukotun — PPoPP 2007).
//
// The repository contains the full stack the paper builds on:
//
//   - internal/stm — a TL2-style software transactional memory with the
//     rich semantics the paper requires: closed nesting with partial
//     rollback, open nesting, commit/abort handlers and
//     program-directed abort;
//   - internal/sim — a deterministic virtual-CPU simulator standing in
//     for the paper's execution-driven CMP simulator;
//   - internal/collections — java.util-style HashMap, red-black
//     TreeMap, and Queue implementations;
//   - internal/stmcol — STM-instrumented variants (the paper's failing
//     "Atomos HashMap / TreeMap" baselines);
//   - internal/semlock — semantic lock tables (key, size, empty, range,
//     endpoint);
//   - internal/core — the contribution: TransactionalMap,
//     TransactionalSortedMap, TransactionalQueue, sets, and the
//     open-nested Counter and UIDGen;
//   - internal/jbb — the high-contention single-warehouse SPECjbb2000
//     variant of the paper's §6.3;
//   - internal/harness and cmd/tccbench — CPU sweeps that regenerate
//     the paper's Figures 1-4.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory
// and substitutions, and EXPERIMENTS.md for measured-vs-paper results.
// The benchmarks in bench_test.go regenerate every figure
// (BenchmarkFigure1..4) and the §5.1 design-choice ablations; the full
// sweep behind EXPERIMENTS.md is
//
//	go run ./cmd/tccbench -ops 4096 -stats
package tcc
