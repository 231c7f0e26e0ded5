#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a parent checkout against a change.

  python3 benchmark/compare.py --base <parent checkout> --change <checkout>
      [--pairs 10] [--workload <name>|all] [--claim <workload>:<metric>]
      [--first-seed 1]
  python3 benchmark/compare.py --selftest

Runs at least ten interleaved pairs per workload, alternating which side
runs first; pair i uses seed first-seed + i on both sides. Prints, per
workload, one row per end-to-end metric, then one per per-layer metric the
plain run also prints (the wall-clock ones, "no bound"), with each side's
median and quartiles and a verdict:

  claim       the named metric, with a bound or without: met only when the
              change wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's
              interquartile range, with no more failed requests than the
              parent;
  ok          the change's median is no worse than the parent's by more
              than the metric's bound (BENCHMARK.json);
  REGRESSION  worse by more than the bound;
  unresolved  the run-to-run spread (quartile distance over median, either
              side) is wider than the bound, so the bound cannot be judged;
  better      spread wider than the bound, but every change run reads
              better than every parent run.

The EXACT metrics (model quality and store size) repeat exactly for a given
amount of work, so they are judged pair by pair instead: the verdict is
REGRESSION when any one pair's change is worse than its parent by more than
the bound, and "worse by" shows the worst pair.

Both checkouts must hold the same benchmark (BENCHMARK.json and its paths):
a change that claims a gain may not edit it. Standard library only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Metrics a run reproduces exactly: fixed work on a fixed dataset.
EXACT = ('test_auc', 'avg_train_loss', 'store_mb')


def benchmark_digest(checkout):
    with open(os.path.join(checkout, 'BENCHMARK.json'), 'rb') as f:
        raw = f.read()
    digest = hashlib.sha256(raw)
    for path in sorted(json.loads(raw)['paths']):
        for folder, dirs, files in sorted(os.walk(os.path.join(checkout, path))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith('.pyc'):
                    continue
                full = os.path.join(folder, name)
                digest.update(os.path.relpath(full, checkout).encode())
                with open(full, 'rb') as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_side(checkout, spec, workload, seed):
    cmd = list(spec['command']) + ['--workload', workload, '--seed', str(seed),
                                   '--seconds', str(spec['run_seconds']),
                                   '--trace', '0']
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or not result.get('correct'):
        return None
    # Every "<workload> <metric> <value> <unit>" line: the plain run also
    # prints the ungated wall-clock metrics, which a claim may name.
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                values[parts[1]] = float(parts[2])
            except ValueError:
                pass
    values.update({k: v['value'] for k, v in result['metrics'].items()})
    values['__failed'] = result['failed']
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def sign(better):
    return 1.0 if better == 'higher' else -1.0


def judge_claim(base, change, better):
    """Section 8 rule: >= 90% pair wins and a median gap beyond the parent IQR."""
    s = sign(better)
    wins = sum(1 for b, c in zip(base, change) if s * (c - b) > 0)
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    gap = s * (med_c - med_b)
    met = (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base) and
           gap > q3 - q1)
    return {'wins': wins, 'pairs': len(base), 'gap': gap, 'base_iqr': q3 - q1,
            'met': met}


def judge_bound(base, change, better, bound):
    s = sign(better)
    q1b, med_b, q3b = quartiles(base)
    q1c, med_c, q3c = quartiles(change)
    worse_by = -s * (med_c - med_b) / abs(med_b) if med_b else 0.0
    spread = max((q3b - q1b) / abs(med_b) if med_b else 0.0,
                 (q3c - q1c) / abs(med_c) if med_c else 0.0)
    if spread > bound:
        if min(s * c for c in change) > max(s * b for b in base):
            return 'better', worse_by, spread
        return 'unresolved', worse_by, spread
    return ('REGRESSION' if worse_by > bound else 'ok'), worse_by, spread


def judge_exact(base, change, better, bound):
    """Pair i ran the same seed on both sides, so each pair is judged alone."""
    s = sign(better)
    worse_by = max(-s * (c - b) / abs(b) if b else 0.0
                   for b, c in zip(base, change))
    return ('REGRESSION' if worse_by > bound else 'ok'), worse_by, 0.0


def compare(args):
    base_dir, change_dir = os.path.abspath(args.base), os.path.abspath(args.change)
    if benchmark_digest(base_dir) != benchmark_digest(change_dir):
        sys.exit('compare.py: the two checkouts hold different benchmarks; '
                 'measure both with identical benchmark code')
    with open(os.path.join(change_dir, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    names = [w['name'] for w in spec['workloads']]
    workloads = names if args.workload == 'all' else [args.workload]
    claim_workload, claim_metric = (args.claim.split(':', 1) if args.claim
                                    else (None, None))
    if args.pairs < MIN_PAIRS:
        sys.exit(f'compare.py: at least {MIN_PAIRS} pairs are needed')
    ok = True
    claimed = False
    for workload in workloads:
        runs = {'base': [], 'change': []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ('base', 'change') if i % 2 == 0 else ('change', 'base')
            for side in order:
                got = run_side(base_dir if side == 'base' else change_dir,
                               spec, workload, seed)
                if got is None:
                    sys.exit(f'compare.py: {side} run of {workload} seed {seed} '
                             'failed or was incorrect')
                runs[side].append(got)
            print(f'  {workload} pair {i + 1}/{args.pairs} done', file=sys.stderr)
        print(f'\n{workload}  ({args.pairs} pairs, seeds {args.first_seed}..'
              f'{args.first_seed + args.pairs - 1})')
        print(f'  {"metric":22s} {"parent median [q1, q3]":>34s} '
              f'{"change median [q1, q3]":>34s} {"worse by":>9s}  verdict')
        failed_b = sum(r['__failed'] for r in runs['base'])
        failed_c = sum(r['__failed'] for r in runs['change'])
        # Gated metrics, then the per-layer ones every plain run printed.
        all_runs = runs['base'] + runs['change']
        rows = spec['end_to_end'] + [
            m for m in spec['per_layer'] if all(m['name'] in r for r in all_runs)]
        for m in rows:
            base = [r[m['name']] for r in runs['base']]
            change = [r[m['name']] for r in runs['change']]
            if 'bound' not in m:
                verdict, worse_by, _ = judge_bound(base, change, m['better'],
                                                   float('inf'))
                verdict = 'no bound'
            elif m['name'] in EXACT:
                verdict, worse_by, _ = judge_exact(base, change, m['better'],
                                                   m['bound'])
            else:
                verdict, worse_by, _ = judge_bound(base, change, m['better'],
                                                   m['bound'])
            if workload == claim_workload and m['name'] == claim_metric:
                c = judge_claim(base, change, m['better'])
                c['met'] = c['met'] and failed_c <= failed_b
                verdict = (f'claim {"MET" if c["met"] else "NOT MET"} '
                           f'(wins {c["wins"]}/{c["pairs"]}, gap {c["gap"]:.4g} '
                           f'vs parent IQR {c["base_iqr"]:.4g})')
                ok &= c['met']
                claimed = True
            elif verdict == 'REGRESSION':
                ok = False
            qb, qc = quartiles(base), quartiles(change)
            print(f'  {m["name"]:22s} {qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]'
                  f'{"":>3s} {qc[1]:12.5g} [{qc[0]:.5g}, {qc[2]:.5g}]'
                  f' {worse_by:+8.1%}  {verdict}')
        print(f'  failed requests: parent {failed_b}, change {failed_c}')
    if args.claim and not claimed:
        print(f'claim {args.claim}: no such metric was measured on that workload')
        ok = False
    return 0 if ok else 1


def selftest():
    failures = 0

    def expect(cond, what):
        nonlocal failures
        print(f'  {"ok  " if cond else "FAIL"}  {what}')
        failures += 0 if cond else 1

    base = [100.0 + i for i in range(10)]              # IQR ~5
    faster = [b - 20 for b in base]                    # lower is better
    expect(judge_claim(base, faster, 'lower')['met'],
           'claim met: 10/10 wins and a gap beyond the parent IQR')
    mixed = faster[:8] + [b + 1 for b in base[8:]]
    expect(not judge_claim(base, mixed, 'lower')['met'],
           'claim not met: 8/10 wins')
    close = [b - 0.5 for b in base]
    expect(not judge_claim(base, close, 'lower')['met'],
           'claim not met: 10/10 wins but the gap is inside the parent IQR')
    expect(not judge_claim(base[:9], faster[:9], 'lower')['met'],
           'claim not met: fewer than ten pairs')
    expect(judge_claim(base, [b + 20 for b in base], 'higher')['met'],
           'claim met for a higher-is-better metric')

    steady = [1000.0 + (i % 3) for i in range(10)]
    expect(judge_bound(steady, [s * 1.02 for s in steady], 'lower', 0.05)[0]
           == 'ok', 'within the bound -> ok')
    expect(judge_bound(steady, [s * 1.2 for s in steady], 'lower', 0.05)[0]
           == 'REGRESSION', 'worse by more than the bound -> REGRESSION')
    expect(judge_bound(steady, [s * 0.8 for s in steady], 'higher', 0.05)[0]
           == 'REGRESSION', 'direction respected for higher-is-better')
    noisy = [1000.0 * (1 + 0.3 * ((i % 4) - 1.5)) for i in range(10)]
    expect(judge_bound(noisy, [n * 1.1 for n in noisy], 'lower', 0.05)[0]
           == 'unresolved', 'spread wider than the bound -> unresolved')
    expect(judge_bound(noisy, [n / 4 for n in noisy], 'lower', 0.05)[0]
           == 'better', 'wide spread but every change run better -> better')

    auc = [0.60 + 0.01 * i for i in range(10)]         # one value per seed
    expect(judge_exact(auc, auc, 'higher', 0.001)[0] == 'ok',
           'exact metric unchanged -> ok')
    one_drop = auc[:9] + [auc[9] * 0.99]
    expect(judge_exact(auc, one_drop, 'higher', 0.001)[0] == 'REGRESSION',
           'exact metric: one pair 1% worse -> REGRESSION')
    expect(judge_bound(auc, one_drop, 'higher', 0.001)[0] != 'REGRESSION',
           '(the median rule alone would miss that drop)')
    expect(judge_exact([0.5] * 10, [0.5002] * 10, 'lower', 0.001)[0] == 'ok',
           'exact metric: 0.04% worse is within a 0.1% bound')
    print(f'{"PASS" if failures == 0 else "FAIL"} ({failures} failed)')
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--base')
    parser.add_argument('--change')
    parser.add_argument('--pairs', type=int, default=MIN_PAIRS)
    parser.add_argument('--workload', default='all')
    parser.add_argument('--claim', help='<workload>:<end-to-end metric>')
    parser.add_argument('--first-seed', type=int, default=1)
    parser.add_argument('--selftest', action='store_true')
    args = parser.parse_args()
    if args.selftest:
        print('compare:')
        sys.exit(selftest())
    if not args.base or not args.change:
        parser.error('--base and --change are required')
    sys.exit(compare(args))


if __name__ == '__main__':
    main()
