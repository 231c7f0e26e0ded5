#!/usr/bin/env python3
"""Builds cafe_bench and runs the end-to-end benchmark (stdlib only).

  bash benchmark/run.sh [--workload <name>|all] [--seed <u64>] [--seconds <s>]
                        [--trace [0|1]] [--smoke] [--out <dir>]
  bash benchmark/run.sh --selftest
  bash benchmark/run.sh --sweep [--seed <u64>]
  bash benchmark/run.sh --baseline

Every (workload, mode) pair runs in a fresh process, so the process-wide
metrics registry starts at zero. A traced run (--trace 1) runs the plain
process first and then the traced one: the per-layer metrics come from the
traced process, trace.overhead_frac compares the two, and the traced
test_auc must equal the plain one. A process whose only failed check is the
load generator's lateness is measured again (see run_valid). The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the BENCHMARK.json end-to-end metrics (plain) or per-layer
metrics (traced).
"""

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

from compare import EXACT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, 'benchmark')
BUILD_DIR = os.path.join(ROOT, 'build-bench')
BINARY = os.path.join(BUILD_DIR, 'cafe_bench')
RUN_TIMEOUT_S = 170
# A run the generator made invalid (it sent late) is measured again, at most
# this many times and only while the measurement of the workload stays
# within RETRY_BUDGET_S of its start (one invocation must end within 180 s).
MAX_RETRIES = 2
RETRY_BUDGET_S = 150
SWEEP_ROUNDS = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def build():
    """Configures (Release) and builds cafe_bench; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, 'CMakeLists.txt')):
        sys.exit('run.sh: the repository sources are missing; nothing to build')
    if shutil.which('cmake') is None:
        sys.exit('run.sh: cmake not found')
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', BENCH_DIR, '-B', BUILD_DIR,
                      '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD_DIR, '-j', jobs,
                  '--target', 'cafe_bench'])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit('run.sh: build failed: ' + ' '.join(step))
    with open(os.path.join(BUILD_DIR, 'CMakeCache.txt')) as f:
        match = re.search(r'^CMAKE_BUILD_TYPE:\w+=(.*)$', f.read(), re.M)
    build_type = match.group(1).strip() if match else ''
    if build_type != 'Release':
        sys.exit(f'run.sh: refusing to measure a {build_type or "default"} '
                 f'build; reconfigure {BUILD_DIR} with -DCMAKE_BUILD_TYPE=Release')


def warn_if_loaded():
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        return
    if load1 > 1.0:
        log(f'run.sh: warning: 1-minute load average is {load1:.2f}; '
            'other work on this host will move the timings')


def run_bench(workload, seed, seconds, out, trace=False, extra=()):
    """Runs one cafe_bench process; returns its result JSON (None on failure)."""
    cmd = [BINARY, '--workload', workload, '--seed', str(seed),
           '--seconds', str(seconds), '--out', out] + list(extra)
    if trace:
        cmd.append('--trace')
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f'run.sh: {workload} did not finish within {RUN_TIMEOUT_S} s')
        return None
    path = os.path.join(out, workload + ('.trace' if trace else '') + '.json')
    if not os.path.isfile(path):
        sys.stdout.write(proc.stdout)
        log(f'run.sh: {workload} wrote no result (exit {proc.returncode})')
        return None
    with open(path) as f:
        result = json.load(f)
    os.remove(path)  # never read a stale result
    if proc.returncode != 0:
        result['correct'] = False
    result['lines'] = proc.stdout
    return result


def run_valid(workload, seed, seconds, out, trace=False, extra=(),
              started=None):
    """run_bench, measured again when the generator's lateness was the only
    failed check: such a run measured the host, not the program. Any other
    failed check is returned as it is. Prints the kept run's metric lines
    to standard output and a discarded run's to standard error. `started`
    (default now) is when the workload's measurement began."""
    started = time.monotonic() if started is None else started
    for attempt in range(MAX_RETRIES + 1):
        began = time.monotonic()
        result = run_bench(workload, seed, seconds, out, trace, extra)
        if result is None:
            return None
        failed = [name for name, ok in result['checks'].items() if not ok]
        took = time.monotonic() - began
        if (result['correct'] or failed != ['generator_on_time'] or
                attempt == MAX_RETRIES or
                time.monotonic() + took - started > RETRY_BUDGET_S):
            sys.stdout.write(result['lines'])
            sys.stdout.flush()
            return result
        sys.stderr.write(result['lines'])
        log(f'run.sh: {workload}: the load generator sent late; measuring again')


def measure(spec, workload, seed, seconds, out, trace, extra=()):
    """One workload in the requested mode -> (correct, attempted, failed, metrics)."""
    started = time.monotonic()
    plain = run_valid(workload, seed, seconds, out, extra=extra,
                      started=started)
    if plain is None:
        return None
    if not trace:
        names = [m['name'] for m in spec['end_to_end']]
        source = plain
    else:
        traced = run_valid(workload, seed, seconds, out, trace=True,
                           extra=extra, started=started)
        if traced is None:
            return None
        plain_rate = plain['metrics']['train_samples_per_s']['value']
        traced_rate = traced['metrics']['train_samples_per_s']['value']
        traced['metrics']['trace.overhead_frac'] = {
            'value': 1.0 - traced_rate / plain_rate, 'unit': 'fraction'}
        same_auc = (traced['metrics']['test_auc']['value'] ==
                    plain['metrics']['test_auc']['value'])
        print(f'{workload} check.traced_auc_equals_plain '
              f'{"pass" if same_auc else "FAIL"}')
        print(f'{workload} trace.overhead_frac '
              f'{traced["metrics"]["trace.overhead_frac"]["value"]:.6g} fraction')
        traced['correct'] = traced['correct'] and plain['correct'] and same_auc
        names = [m['name'] for m in spec['per_layer']]
        source = traced
    missing = [n for n in names if n not in source['metrics']]
    if missing:
        log(f'run.sh: {workload} did not report {missing}')
        return None
    metrics = {n: source['metrics'][n] for n in names}
    return source['correct'], source['attempted'], source['failed'], metrics


def fingerprint():
    tool = json.loads(subprocess.run([BINARY, '--fingerprint'],
                                     stdout=subprocess.PIPE, text=True,
                                     check=True).stdout)
    cpu = platform.processor() or 'unknown'
    try:
        with open('/proc/cpuinfo') as f:
            found = re.search(r'^model name\s*:\s*(.*)$', f.read(), re.M)
            if found:
                cpu = found.group(1).strip()
    except OSError:
        pass
    try:
        sha = subprocess.run(['git', '-C', ROOT, 'rev-parse', 'HEAD'],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or 'unknown'
    except OSError:
        sha = 'unknown'
    fp = {'nproc': os.cpu_count(), 'cpu': cpu, 'simd': tool['simd'],
          'compiler': tool['compiler'], 'build': tool['build'], 'git_sha': sha}
    slug = re.sub(r'[^a-z0-9]+', '-', f'{fp["nproc"]}cpu {cpu} {fp["simd"]} '
                  f'{fp["compiler"]}'.lower()).strip('-')
    return slug, fp


def sweep(spec, seed, out):
    """Multi-core sweep, recorded but not gated. The three settings of a knob
    are interleaved over SWEEP_ROUNDS rounds (seeds seed, seed+1, ...), so
    host drift lands on all of them; each row gives every round's value and
    their median. It also records the CPU cores the whole process used over
    the phase (the spinning load thread included): an oversubscribed
    setting shows as one above nproc."""
    seconds = spec['run_seconds']
    rows = []
    for workload, flag, metric in (
            ('wide-catalog', '--backward-threads', 'train_samples_per_s'),
            ('serve-burst', '--workers', 'serve_throughput_rps')):
        got = {n: [] for n in (1, 2, 3)}
        for r in range(SWEEP_ROUNDS):
            for n in got:
                got[n].append(run_valid(workload, seed + r, seconds, out,
                                        extra=(flag, str(n))))
        for n, runs in got.items():
            ok = all(run is not None and run['correct'] for run in runs)
            values = [run['metrics'][metric]['value'] for run in runs if run]
            cores = [run['counts']['phase_cpu_cores']['value']
                     for run in runs if run]
            rows.append({'workload': workload, 'knob': flag.lstrip('-'),
                         'value': n, 'metric': metric, 'results': values,
                         'median': statistics.median(values) if values else None,
                         'phase_cpu_cores': cores, 'correct': ok})
            log(f'sweep {workload} {flag} {n}: {metric} {values}, '
                f'cores {cores}')
    return rows


def plain_values(workload, seed, seconds, out):
    """Every metric and count one plain run reports, gated or not."""
    got = run_valid(workload, seed, seconds, out)
    if got is None or not got['correct']:
        sys.exit(f'run.sh: baseline run of {workload} seed {seed} failed')
    return {k: v['value'] for group in ('metrics', 'counts')
            for k, v in got[group].items()}


def baseline(spec, out):
    """Two acceptance sets (seed 1, forward then reverse order), a ten-seed
    spread set and the multi-core sweep, written to baseline/<host>.json.
    Agreement is judged on the end-to-end metrics; the results and spreads
    hold every metric a plain run prints, the ungated wall-clock ones too."""
    names = [w['name'] for w in spec['workloads']]
    seconds = spec['run_seconds']
    sets = []
    for order in (names, list(reversed(names))):
        results = {w: plain_values(w, 1, seconds, out) for w in order}
        sets.append({'order': order, 'results': results})
    agreement = {}
    for workload in names:
        a, b = sets[0]['results'][workload], sets[1]['results'][workload]
        rows = {}
        for m in spec['end_to_end']:
            va, vb = a[m['name']], b[m['name']]
            rel = abs(vb - va) / abs(va) if va else 0.0
            ok = va == vb if m['name'] in EXACT else rel <= m['bound']
            rows[m['name']] = {'rel_diff': rel, 'bound': m['bound'], 'ok': ok}
        agreement[workload] = rows
    spread = {}
    for workload in names:
        values = {}
        for seed in range(2, 12):
            for k, v in plain_values(workload, seed, seconds, out).items():
                values.setdefault(k, []).append(v)
        spread[workload] = {}
        for k, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread[workload][k] = {'median': med,
                                   'iqr_over_median': (q3 - q1) / med if med else 0.0}
    slug, fp = fingerprint()
    doc = {'fingerprint': fp,
           'date': datetime.date.today().isoformat(),
           'run_seconds': seconds,
           'acceptance_sets': sets,
           'acceptance_agreement': agreement,
           'spread_seeds_2_to_11': spread,
           'sweep_seeds_1_to_3': sweep(spec, 1, out)}
    path = os.path.join(BENCH_DIR, 'baseline', slug + '.json')
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, 'w') as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write('\n')
    log(f'run.sh: wrote {path}')
    return all(r['ok'] for rows in agreement.values() for r in rows.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', default='all')
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float)
    parser.add_argument('--trace', nargs='?', const='1', default='0',
                        choices=('0', '1'))
    parser.add_argument('--smoke', action='store_true')
    parser.add_argument('--out', default=os.path.join(BUILD_DIR, 'out'))
    parser.add_argument('--selftest', action='store_true')
    parser.add_argument('--sweep', action='store_true')
    parser.add_argument('--baseline', action='store_true')
    args = parser.parse_args()

    spec = load_spec()
    names = [w['name'] for w in spec['workloads']]
    if args.workload != 'all' and args.workload not in names:
        sys.exit(f'run.sh: unknown workload {args.workload!r} (one of {names})')
    build()
    os.makedirs(args.out, exist_ok=True)

    if args.selftest:
        ok = subprocess.run([BINARY, '--selftest']).returncode == 0
        ok &= subprocess.run([sys.executable,
                              os.path.join(BENCH_DIR, 'compare.py'),
                              '--selftest']).returncode == 0
        sys.exit(0 if ok else 1)

    warn_if_loaded()
    if args.sweep:
        rows = sweep(spec, args.seed, args.out)
        for r in rows:
            print(f'{r["workload"]} {r["knob"]}={r["value"]} {r["metric"]} '
                  f'median {r["median"]} of {r["results"]} '
                  f'phase_cpu_cores {r["phase_cpu_cores"]}')
        sys.exit(0 if all(r['correct'] for r in rows) else 1)
    if args.baseline:
        sys.exit(0 if baseline(spec, args.out) else 1)

    seconds = args.seconds or spec['run_seconds']
    trace = args.trace == '1'
    extra = ()
    if args.smoke:
        # Every check, the traced one included, in well under 20 s.
        seconds = args.seconds or 0.3
        extra = ('--smoke',)
        trace = True
    workloads = names if args.workload == 'all' else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        got = measure(spec, workload, args.seed, seconds, args.out, trace, extra)
        if got is None:
            sys.exit(1)
        correct &= got[0]
        attempted += got[1]
        failed += got[2]
        for name, value in got[3].items():
            metrics[name if len(workloads) == 1 else f'{workload}/{name}'] = value
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    sys.exit(0 if correct else 1)


if __name__ == '__main__':
    main()
