#!/usr/bin/env python
"""Evasive attackers in the renewal zone (clusters 8-10).

Reproduces the three behaviours behind Figure 4's accuracy drop:

1. *acting legitimately* — the attacker suspends its attack whenever it
   might be under observation, so there is nothing to convict;
2. *fleeing* — answering the first probe and bolting out of the cluster
   (chased into the next cluster, or lost off the end of the highway);
3. *pseudonym renewal* — changing identity mid-detection, so the suspect
   under examination ceases to exist.

In every case BlackDP still *impedes* the attack: the source never
commits data to the unverified route.

Run:  python examples/evasive_attacker.py
"""

from repro.attacks import AttackerPolicy
from repro.experiments.config import TableIConfig, TrialConfig
from repro.experiments.trial import run_trial


def show(title, policy, cluster=9):
    result = run_trial(
        TrialConfig(
            seed=17,
            attack="single",
            attacker_cluster=cluster,
            table=TableIConfig(num_vehicles=40),
            policy=policy,
        )
    )
    verdicts = [r.verdict for r in result.records]
    print(f"\n--- {title} (cluster {cluster}) ---")
    print(f"  detected/isolated: {result.detected}")
    print(f"  verdicts recorded: {verdicts or ['(none — nothing reported)']}")
    print(f"  honest node convicted (false positive): {result.false_positive}")
    print(f"  attack impeded anyway: {result.attack_impeded}")


def main():
    show("aggressive (for contrast: always caught)", AttackerPolicy.aggressive())
    show("acting legitimately", AttackerPolicy.act_legitimately())
    show("reply once, then renew pseudonym and go quiet",
         AttackerPolicy(max_replies=1, renew_after_replies=1))
    show("reply once, then flee off the end of the highway",
         AttackerPolicy(flee_after_replies=1, flee_speed=40.0), cluster=10)


if __name__ == "__main__":
    main()
