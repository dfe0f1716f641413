# Checks of the installed `besselsums` console script, shared by the CI jobs:
#
#     bash -e .github/console_checks.sh DIR
#
# DIR receives the files the checks write.  bash -e does not stop on a failing
# test inside an `if` or on a "!"-negated command, so each check exits by hand.
dir=${1:?usage: bash -e console_checks.sh DIR}

# run a command with its stderr in $dir/err (echoed) and its exit code in $code
run() {
  code=0
  "$@" 2>"$dir/err" || code=$?
  cat "$dir/err"
}
fail() {
  echo "console check failed: $*" >&2
  exit 1
}

echo "== console script"
# eval reads each function's arguments from its signature; a missing one must fail
besselsums list-rules
besselsums verify --format json --out "$dir/report.json"
besselsums eval bessel_j nu=0 x=1
besselsums eval hybrid_k mu=0 m=-2 x=0.25 y=0.1 xi=-1
if besselsums eval bessel_j nu=0; then fail "eval with a missing argument exited 0"; fi
# 1/Gamma(nu + k + 1) underflows to 0 past lgamma's range, so the sum is 0
besselsums eval bessel_j nu=1e306 x=1

echo "== eval prints a value for the Tricomi and Wright functions and each composite"
# the Tricomi kernel with and without a leading run of poles; the composites
# at an integer Gamma offset with mu = 1 (tabled 1/Gamma) and at mu = 0.5
for args in "tricomi_c alpha=-0.5 x=2" "tricomi_c alpha=-3 x=2" "h_tricomi nu=0 m=2 u=1 v=0.5" \
  "l_tricomi nu=0 u=0.3 v=0.7" "h_wright nu=0 m=2 mu=0.5 u=0.4 v=-0.25" "wright nu=1 mu=1 x=0.3"; do
  run besselsums eval $args >"$dir/eval.out"
  cat "$dir/eval.out"
  if [ "$code" -ne 0 ]; then fail "eval $args exited $code"; fi
  if ! grep -q "^value = " "$dir/eval.out"; then fail "eval $args printed no value line"; fi
done

echo "== the report is strict json"
python -c 'import json, sys;
json.load(open(sys.argv[1]), parse_constant=lambda t: sys.exit(f"not json: {t}"))' "$dir/report.json"

echo "== the report is indent-2 json"
# render_json fills in one template per record; the file must be byte for byte
# what json.dumps(indent=2) writes for the same document
python -c 'import json, sys; text = open(sys.argv[1]).read()
sys.exit(text != json.dumps(json.loads(text), indent=2) + "\n")' "$dir/report.json" ||
  fail "the json report is not what json.dumps(indent=2) writes"

echo "== a plan error echoes a huge value abbreviated"
python -c 'import json; print(json.dumps({"entries": [{"rule": "ASCENDING_GEN",
"grid": {"nu": [0], "x": [[0] * 100000], "t": [0.1]}}]}))' > "$dir/huge.json"
run besselsums verify --plan "$dir/huge.json"
if [ "$code" -ne 1 ]; then fail "huge grid value exited $code"; fi
if [ "$(wc -c < "$dir/err")" -ge 500 ]; then fail "huge grid value gave $(wc -c < "$dir/err") bytes of stderr"; fi

echo "== a null tolerance is a located error"
# a json null is refused, not read as "use the default"
echo '{"entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2], "t": [0.1]}, "tol_abs": null}]}' > "$dir/null.json"
run besselsums verify --plan "$dir/null.json"
if [ "$code" -ne 1 ]; then fail "null tolerance exited $code"; fi
if [ "$(head -c 14 "$dir/err")" != "error: entry 0" ]; then fail "null tolerance is not located"; fi
if grep -q Traceback "$dir/err"; then fail "null tolerance printed a traceback"; fi

echo "== verdict tolerances come from the plan alone"
# verify takes no tolerance flag; an entry's own tol_abs/tol_rel judge its records
run besselsums verify --tol-abs 1e-3
if [ "$code" -ne 1 ]; then fail "verify --tol-abs exited $code"; fi
if grep -q Traceback "$dir/err"; then fail "verify --tol-abs printed a traceback"; fi
echo '{"entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2], "t": [0.1]}, "tol_abs": 1e-30, "tol_rel": 1e-30}]}' > "$dir/tight.json"
run besselsums verify --plan "$dir/tight.json"
if [ "$code" -ne 2 ]; then fail "an entry at tolerance 1e-30 exited $code"; fi

echo "== a plan nested past the recursion limit is a located error"
python -c 'print("{\"entries\": " + "[" * 200000 + "]" * 200000 + "}")' > "$dir/deep.json"
run besselsums verify --plan "$dir/deep.json"
if [ "$code" -ne 1 ]; then fail "deep plan exited $code"; fi
if grep -q Traceback "$dir/err"; then fail "deep plan printed a traceback"; fi

echo "== the derivative rules verify where finite differences did not"
# WEIGHTED_S at m = 3, 4 was DISCREPANT off a finite-difference derivative, and
# APPENDIX_DERIV refused an x inside the stencil's step
echo '{"entries": [{"rule": "WEIGHTED_S", "grid": {"l": [0, 1, 2, 3, 4, 5], "m": [3, 4], "x": [3], "y": [1]}}]}' > "$dir/weighted.json"
run besselsums verify --plan "$dir/weighted.json"
if [ "$code" -ne 0 ]; then fail "WEIGHTED_S at m = 3, 4 exited $code"; fi
echo '{"entries": [{"rule": "APPENDIX_DERIV", "grid": {"nu": [0.5], "x": [0.0001]}}]}' > "$dir/appendix.json"
run besselsums verify --plan "$dir/appendix.json"
if [ "$code" -ne 0 ]; then fail "APPENDIX_DERIV at x = 1e-4 exited $code"; fi

echo "== the extended Neumann sum verifies where its nested right side did not"
# hybrid_k summed HK nested, its outer sum stopping on three small terms:
# DISCREPANT at (8.105, 1.393, -0.0633) and (3.705, 0.954, -0.0464), and at
# three more of the eight grid points between them
echo '{"entries": [{"rule": "NEUMANN_EXT", "grid": {"x": [8.105, 3.705], "y": [1.393, 0.954], "t": [-0.0633, -0.0464]}}]}' > "$dir/neumann.json"
run besselsums verify --plan "$dir/neumann.json"
if [ "$code" -ne 0 ]; then fail "NEUMANN_EXT at the Baseline points exited $code"; fi

echo "== the fractional-order rule verifies past m = CONSECUTIVE_SMALL"
# h_wright stopped after three small terms at any m, before the Hermite table
# of order 15 took its first power of v: both records DISCREPANT at rel_err 0.24
echo '{"entries": [{"rule": "FRACTIONAL_ORDER", "grid": {"m": [15], "x": [1], "t": [-0.5, 0.5]}}]}' > "$dir/fractional.json"
run besselsums verify --plan "$dir/fractional.json"
if [ "$code" -ne 0 ]; then fail "FRACTIONAL_ORDER at m = 15 exited $code"; fi

echo "== entries on one grid share a run's J values and keep their records"
# ASCENDING_GEN and DESCENDING_GEN read the same J_(nu+-n)(2): the run evaluates
# each once, and its records are those of the two entries run as plans of their own
grid='"grid": {"nu": [0, 0.5, 1, 2.5], "x": [2], "t": [0, 0.2, -0.2, 0.45, -0.45]}'
echo "{\"entries\": [{\"rule\": \"ASCENDING_GEN\", $grid}]}" > "$dir/asc.json"
echo "{\"entries\": [{\"rule\": \"DESCENDING_GEN\", $grid}]}" > "$dir/desc.json"
echo "{\"entries\": [{\"rule\": \"ASCENDING_GEN\", $grid}, {\"rule\": \"DESCENDING_GEN\", $grid}]}" > "$dir/both.json"
for name in asc desc both; do
  run besselsums verify --plan "$dir/$name.json" --format json --out "$dir/$name.out.json"
  if [ "$code" -ne 0 ]; then fail "the $name plan exited $code"; fi
done
python -c 'import json, sys; records = lambda name: json.load(open(sys.argv[1] + "/" + name + ".out.json"))["records"]
sys.exit(records("both") != records("asc") + records("desc"))' "$dir" ||
  fail "a shared run's records differ from its entries run alone"

echo "== a plan that sets the summation policy is a located error"
# the policy is fixed: a plan may restate it, and any other value is refused
echo '{"policy": {"max_terms": 800}, "entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2], "t": [0.1]}}]}' > "$dir/policy.json"
run besselsums verify --plan "$dir/policy.json"
if [ "$code" -ne 1 ]; then fail "a plan setting max_terms exited $code"; fi
if [ "$(head -c 7 "$dir/err")" != "error: " ]; then fail "a plan setting max_terms gave another message"; fi
if ! grep -q max_terms "$dir/err"; then fail "the policy error does not name max_terms"; fi
if grep -q Traceback "$dir/err"; then fail "a plan setting max_terms printed a traceback"; fi

echo "== kernel errors fail located, and fast"
# a non-finite kernel sum is one error line (stderr compared whole, so no
# traceback); a hermite_m degree whose terms overflow fails within seconds,
# where timeout would exit 124
run besselsums eval bessel_j nu=-200.5 x=5
if [ "$code" -ne 1 ]; then fail "non-finite J sum exited $code"; fi
if [ "$(cat "$dir/err")" != "error: non-finite term while summing J_-200.5(5.0)" ]; then
  fail "non-finite J sum gave another message"
fi
run timeout 20 besselsums eval hermite_m n=200000 m=1 x=1 y=1
if [ "$code" -ne 1 ]; then fail "overflowing hermite_m exited $code"; fi

echo "== hybrid_k outside its one-series domain is one error line"
# hybrid_k sums only m <= -1 with integer mu; any other point is refused, not summed
for args in "mu=0 m=1 x=1 y=1 xi=0.5" "mu=0.5 m=-2 x=1 y=1 xi=0.001"; do
  run besselsums eval hybrid_k $args
  if [ "$code" -ne 1 ]; then fail "eval hybrid_k $args exited $code"; fi
  if [ "$(wc -l < "$dir/err")" -ne 1 ] || [ "$(head -c 7 "$dir/err")" != "error: " ]; then
    fail "eval hybrid_k $args gave another message"
  fi
done

echo "== a sum over all integers, through the public API"
# sum_n J_n(1) = 1 (the generating function at t = 1); a sum that does not
# converge spends the fixed 400-term budget, which counts the pairs term(k) + term(-k)
python -c 'import sys; from besselsums import bessel_j, sum_bilateral
ev = sum_bilateral(lambda n: bessel_j(n, 1.0).value)
if not (ev.converged and abs(ev.value - 1.0) <= 1e-13): sys.exit(f"sum of J_n(1): {ev}")
ev = sum_bilateral(lambda n: 1.0 / (abs(n) + 1))
if ev.converged or ev.terms_used != 400: sys.exit(f"sum of 1/(|n|+1): {ev}")' ||
  fail "sum_bilateral"

echo "== a reader that leaves early gets no traceback"
# judge stderr, not the pipeline's status, which depends on pipefail
besselsums list-rules 2>"$dir/err" | head -1 || true
if [ -s "$dir/err" ]; then cat "$dir/err"; fail "an early reader made list-rules write to stderr"; fi

echo "console checks passed"
