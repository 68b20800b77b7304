"""Command-line interface: list scenarios, run one, or sweep many."""
from __future__ import annotations

import os
import pathlib

import click

from . import harness
from . import scenario as sc
from .llm_client import DEFAULT_API_KEY_ENV, BackendConfig, TranscriptLog

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


@click.group()
def main():
    """Mixed-autonomy traffic benchmarks with agent-controlled vehicles."""


@main.command("list")
def list_cmd():
    """Print the benchmark catalog."""
    header = f"{'name':<10} {'topology':<14} {'time':>6}  vehicles"
    click.echo(header)
    click.echo("-" * len(header))
    for cfg in sc.catalog():
        if cfg.topology == "merge":
            mix = f"{cfg.penetration:.1%} CAV penetration"
        else:
            mix = f"{cfg.n_humans} humans, {cfg.n_cavs} CAVs"
        click.echo(f"{cfg.name:<10} {cfg.topology:<14} {cfg.horizon_s:>5.0f}s  {mix}")


def _parse_seeds(ctx, param, text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise click.BadParameter(
            f"{text!r} is neither a range 'a..b' nor a list of integers") from None
    if not seeds:
        raise click.BadParameter(f"{text!r} selects no seeds")
    return seeds


def _parse_rates(ctx, param, text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        rates = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a list of numbers") from None
    if not rates:
        raise click.BadParameter(f"{text!r} selects no penetration rates")
    if not all(0.0 <= r <= 1.0 for r in rates):
        raise click.BadParameter(f"{text!r}: every rate must lie in [0, 1]")
    return rates


def _find(name: str, option: str) -> sc.ScenarioConfig:
    """The catalog entry ``name``; an unknown name is a usage error of ``option``."""
    try:
        return sc.find(name)
    except KeyError as exc:
        raise click.BadParameter(exc.args[0], param_hint=f"'{option}'") from None


def _resolve_config(name, config_path, seed, no_collab, no_memory, no_perception):
    cfg = _find(name, "--scenario")
    if config_path:
        try:
            cfg = sc.apply_overrides(cfg, sc.load_overrides(config_path))
        except ValueError as exc:  # unknown keys, bad JSON, out-of-range values
            raise click.BadParameter(str(exc), param_hint="'--config'") from None
    return cfg.replace(seed=seed,
                       collaboration=cfg.collaboration and not no_collab,
                       memory=cfg.memory and not no_memory,
                       perception=cfg.perception and not no_perception)


@main.command("run")
@click.option("--scenario", "scenario_name", required=True,
              help="catalog name, e.g. 'Ring 1'")
@click.option("--backend", "backend_name",
              type=click.Choice(["scripted", "replay", "remote"]),
              default="scripted", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON document overriding catalog defaults")
@click.option("--no-collab", is_flag=True, help="disable the collaboration module")
@click.option("--no-memory", is_flag=True, help="disable experience recall")
@click.option("--no-perception", is_flag=True, help="disable scene rendering in prompts")
@click.option("--transcript", "transcript_path", type=click.Path(exists=True),
              default=None, help="recorded transcript to replay")
@click.option("--endpoint", default=DEFAULT_ENDPOINT, show_default=True)
@click.option("--model", default="gpt-4o-mini", show_default=True)
@click.option("--api-key-env", default=DEFAULT_API_KEY_ENV, show_default=True)
@click.option("--temperature", type=float, default=BackendConfig.temperature, show_default=True)
@click.option("--timeout", type=click.FloatRange(min=0, min_open=True),
              default=BackendConfig.timeout_s, show_default=True)
@click.option("--retries", type=click.IntRange(min=0), default=BackendConfig.max_retries,
              show_default=True)
def run_cmd(scenario_name, backend_name, seed, out_dir, config_path, no_collab,
            no_memory, no_perception, transcript_path, endpoint, model,
            api_key_env, temperature, timeout, retries):
    """Run one scenario and export metrics, trajectories, and transcript."""
    cfg = _resolve_config(scenario_name, config_path, seed, no_collab,
                          no_memory, no_perception)
    if backend_name == "remote" and not os.environ.get(api_key_env):
        raise click.UsageError(
            f"remote backend needs the {api_key_env} environment variable")
    if backend_name == "replay" and not transcript_path:
        raise click.UsageError("replay backend needs --transcript")
    out = pathlib.Path(out_dir)
    if (transcript_path is not None and pathlib.Path(transcript_path).resolve()
            == (out / "transcript.jsonl").resolve()):
        raise click.UsageError(
            "--transcript is the transcript this run writes to --out; "
            "replay it from another directory")
    out.mkdir(parents=True, exist_ok=True)
    log = None
    if backend_name in ("remote", "replay"):
        log = TranscriptLog(out / "transcript.jsonl")
    remote_config = BackendConfig(endpoint=endpoint, model=model,
                                  api_key_env=api_key_env, timeout_s=timeout,
                                  max_retries=retries, temperature=temperature)
    try:
        backend = harness.make_backend(
            backend_name, remote_config=remote_config,
            transcript_path=transcript_path, log=log,
            run_id=f"{cfg.name} seed={seed}")
        result = harness.run(cfg, backend)
    finally:
        if log is not None:
            log.close()
    paths = harness.export(result, out)
    click.echo(f"{cfg.name} seed={seed} backend={backend_name}")
    click.echo(f"  avg_speed = {result.avg_speed:.4f} m/s")
    click.echo(f"  speed_std = {result.speed_std:.4f} m/s")
    if result.roles:
        roles = ", ".join(f"{k}:{v}" for k, v in sorted(result.roles.items()))
        click.echo(f"  roles: {roles}")
    flagged = {k: v for k, v in result.flags.items() if v}
    if flagged:
        click.echo(f"  flags: {flagged}")
    click.echo(f"  wrote {paths['metrics']} and {paths['trajectories']}")
    if result.flags.get("collision"):
        raise SystemExit(2)


@main.command("sweep")
@click.option("--scenarios", default=None,
              help="comma-separated catalog names, e.g. 'Ring 0,Ring 1'")
@click.option("--seeds", default="0..4", show_default=True, callback=_parse_seeds,
              help="range 'a..b' or comma-separated list")
@click.option("--penetrations", default=None, callback=_parse_rates,
              help="comma-separated CAV rates; sweeps the merge template instead")
@click.option("--scenario", "template_name", default="Merge 0", show_default=True,
              help="template for a penetration sweep")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="write the aggregated table as CSV")
def sweep_cmd(scenarios, seeds, penetrations, template_name, workers, out_path):
    """Aggregate scripted runs over seeds, per scenario or per penetration rate."""
    if not (penetrations or scenarios):
        raise click.UsageError("pass --scenarios or --penetrations")
    try:
        if penetrations:
            template = _find(template_name, "--scenario")
            table = harness.penetration_sweep(template, seeds, penetrations, workers)
        else:
            cells = [harness.SweepCell(label=name.strip(), config=_find(name, "--scenarios"))
                     for name in scenarios.split(",") if name.strip()]
            table = harness.sweep(cells, seeds, workers)
    except ValueError as exc:  # a template that is not a merge, a repeated label
        raise click.UsageError(str(exc)) from None
    click.echo(table.format_table())
    if out_path:
        pathlib.Path(out_path).write_text(table.to_csv(), encoding="utf-8")
        click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
