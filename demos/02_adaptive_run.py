"""
An adaptive reconstruction, step by step
========================================

Instead of measuring all settings, the observer asks before each pulse
train which unmeasured setting would shrink the posterior variance the
most, measures that one, and stops when further measurements stop
paying.  This script runs the full-size loop (121 settings available)
and prints a thinned view of the decisions.  It runs BLAS at one thread
unless the environment sets a thread count: on a 2-vCPU x86-64 host it
took 13-14 s at one thread and 26-28 s at OpenBLAS's default two.
"""

from dptomo import default_blas_threads

default_blas_threads()  # before numpy's first import, which reads the setting

from dptomo.experiment_cli import RunConfig, export_report, run_reconstruction  # noqa: E402

config = RunConfig(signal_kind="coherent", bank_seed=1, signal_seed=1001)
trace, report = run_reconstruction(config)

print(f"prior variance {trace.initial_variance:.3e}, "
      f"{trace.initial_shear_iterations} initial shearing passes")
print()
print("step  setting      predicted      actual     min eig (sheared)")
shown = {1, 2, 3, 4, 5} | set(range(10, len(trace.records) + 1, 10))
shown.add(len(trace.records))
last = 0
for rec in trace.records:
    if rec.step not in shown:
        continue
    if rec.step - last > 1:
        print("  ...")
    last = rec.step
    print(f"{rec.step:4d}  ({rec.setting_re:+.2f}{rec.setting_im:+.2f}j)"
          f"  {rec.predicted_variance:.3e}  {rec.variance:.3e}"
          f"   {rec.min_eig_after:+.2e}")

# the trace records whether the stopping rule fired or the bank simply
# ran out; both are valid ends of a run
if trace.exhausted:
    print(f"\nbank exhausted after {len(trace.records)} settings")
else:
    print(f"\nstopped after {trace.stop_step} of 121 settings")
print(f"fidelity with the true state: {report.fidelity:.4f}")
print(f"worst estimated-probability clip: {report.clip_excess:.2e}")

# every run exports the same four CSV files plus run.json; the CSVs are
# deliberately plot-ready so any external tool can draw the figures
path = export_report(trace, report, config, "demo_run")
print(f"full record in {path}")
