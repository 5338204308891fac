#!/usr/bin/env sh
# CI entry point: the tier-1 verify command on a Release build, explicit
# socket-runtime smokes (`simctl run --runtime tcp` and the lossy
# `--runtime udp` in one process, plus both two-OS-process serve/join
# clusters — clean TCP and 10%-loss UDP — plus the three-process durable
# crash/recovery smoke, a crash-churn fuzz slice and TCP/UDP fuzz slices
# with batching on and off), a bench harness smoke (every
# bench runs seconds-scale and must emit parseable BENCH_*.json), Asan and
# Ubsan builds running the tier1 ctest label, then a Tsan build running the
# threaded-runtime, TCP-runtime and UDP-runtime convergence tests, the
# socket link-layer tests, the vote-tally differential (the tallies
# engine workers read while cloning instances) and the late-fork and
# retention tests under ThreadSanitizer.
# Mirrors .github/workflows/ci.yml; see BUILDING.md for the full command
# reference.
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> Release build + full suite (tier-1 verify)"
cmake -B build-ci -S .
cmake --build build-ci -j "$jobs"
# `cd` instead of `ctest --test-dir` keeps the script working on CMake < 3.20.
(cd build-ci && ctest --output-on-failure -j "$jobs")

echo "==> Socket-runtime smoke (real localhost TCP, single process + multi-process)"
./build-ci/simctl run --runtime tcp --n 4 --instances 4 --seconds 5 --interval 2
sh tools/tcp_cluster_smoke.sh ./build-ci/simctl

echo "==> Crash-recovery smoke (three-process durable cluster, SIGKILL + restart)"
sh tools/crash_cluster_smoke.sh ./build-ci/simctl

echo "==> Crash-churn fuzz slice (kill/restart plans on the threaded runtime)"
./build-ci/simctl fuzz --runtime threads --seeds 1..8

echo "==> Forger fuzz slice (real wots signatures + raw-hosted forger adversary)"
./build-ci/simctl fuzz --runtime threads --seeds 1..8 --sig wots

echo "==> Parallel-interpretation fuzz slice (crash churn with the sharded engine forced on)"
./build-ci/simctl fuzz --runtime threads --seeds 1..8 --interpret-workers 4

echo "==> TCP fuzz slice, batching A/B (same seeds with dissemination batching on, then off)"
./build-ci/simctl fuzz --runtime tcp --seeds 1..8
./build-ci/simctl fuzz --runtime tcp --seeds 1..8 --batch off

echo "==> Lossy-datagram smoke (real localhost UDP, 15% injected loss + two-process 10%-loss cluster)"
./build-ci/simctl run --runtime udp --n 4 --instances 4 --seconds 5 --interval 2 --drop 0.15
sh tools/udp_cluster_smoke.sh ./build-ci/simctl

echo "==> UDP fuzz slice, batching A/B (same seeds with dissemination batching on, then off)"
./build-ci/simctl fuzz --runtime udp --seeds 1..3
./build-ci/simctl fuzz --runtime udp --seeds 1..3 --batch off

echo "==> Bench harness smoke (all thirteen benches, JSON artifacts validated)"
sh tools/bench_all.sh -B build-ci --smoke

echo "==> Asan build + tier1 label"
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Asan \
      -DBLOCKDAG_BUILD_BENCHES=OFF -DBLOCKDAG_BUILD_EXAMPLES=OFF \
      -DBLOCKDAG_BUILD_TOOLS=OFF
cmake --build build-ci-asan -j "$jobs"
(cd build-ci-asan && ctest --output-on-failure -j "$jobs" -L tier1)

echo "==> Ubsan build + tier1 label"
cmake -B build-ci-ubsan -S . -DCMAKE_BUILD_TYPE=Ubsan \
      -DBLOCKDAG_BUILD_BENCHES=OFF -DBLOCKDAG_BUILD_EXAMPLES=OFF \
      -DBLOCKDAG_BUILD_TOOLS=OFF
cmake --build build-ci-ubsan -j "$jobs"
(cd build-ci-ubsan && ctest --output-on-failure -j "$jobs" -L tier1)

echo "==> Tsan build + threaded/TCP/UDP runtime + link-layer + verifier-pool smoke (ThreadSanitizer)"
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Tsan \
      -DBLOCKDAG_BUILD_BENCHES=OFF -DBLOCKDAG_BUILD_EXAMPLES=OFF \
      -DBLOCKDAG_BUILD_TOOLS=OFF
cmake --build build-ci-tsan -j "$jobs" \
      --target rt_threaded_runtime_test rt_tcp_runtime_test \
               rt_udp_runtime_test rt_timer_wheel_test rt_crash_restart_test \
               rt_mailbox_batch_test rt_socket_transport_test \
               crypto_verifier_pool_test interpret_parallel_interpreter_test \
               interpret_interpreter_test interpret_retention_test \
               protocols_fifo_sharing_test protocol_vote_tally_test
(cd build-ci-tsan && ctest --output-on-failure \
    -R '^(rt/(threaded_runtime_test|tcp_runtime_test|udp_runtime_test|timer_wheel_test|crash_restart_test|mailbox_batch_test|socket_transport_test)|crypto/verifier_pool_test|interpret/(parallel_interpreter_test|interpreter_test|retention_test)|protocols/fifo_sharing_test|protocol/vote_tally_test)$')
# The pool's shutdown race is timing-shaped: loop the Tsan binaries so the
# sanitizer sees many distinct stop()-vs-batch interleavings (the parallel
# interpreter shares the verifier pool's owner-drains-the-bag protocol;
# the mailbox batch-drain races four producers against the swap; engine
# workers clone committed FIFO-BRB instances whose slots they share; the
# socket link layer starts and stops real transports; the late-fork and
# retention tests re-derive a forked builder's instance state and retain
# only builder tips, on the serial path and under the engine).
for i in 1 2 3 4 5 6 7 8 9 10; do
  ./build-ci-tsan/crypto_verifier_pool_test >/dev/null
  ./build-ci-tsan/interpret_parallel_interpreter_test >/dev/null
  ./build-ci-tsan/interpret_interpreter_test >/dev/null
  ./build-ci-tsan/interpret_retention_test >/dev/null
  ./build-ci-tsan/protocols_fifo_sharing_test >/dev/null
  ./build-ci-tsan/rt_mailbox_batch_test >/dev/null
  ./build-ci-tsan/rt_socket_transport_test >/dev/null
done

echo "==> CI OK"
