"""Evaluate the cross-task loss bound on synthetic instances.

Each instance plants T low-rank task updates and per-task inputs that live
(almost) in their own task's row space. The exact cross-application loss L
is then compared against its certified upper bound; sweeping the input
noise radius shows the additive noise term taking over from the
interference term.
"""

from rankmerge import certify_suites


def main() -> None:
    print("noise sweep on a fixed instance (d=8, T=3, r=2):")
    print(f"{'eta':>5}  {'L':>12}  {'bound':>12}  holds")
    etas = (0.0, 0.1, 0.25, 0.5)
    # Each spec is (d, T, n, r, alpha, s_max, c, eta, seed).
    sweep = certify_suites((8, 3, 4, 2, 0.5, 1.5, 1.0, eta, 3) for eta in etas)
    for eta, (_, cert) in zip(etas, sweep):
        print(f"{eta:>5.2f}  {cert.L_value:>12.6f}  {cert.bound_value:>12.4f}  {cert.holds}")

    print("\nand a batch of random instances:")
    batch = certify_suites((6, 3, 3, 2, 0.4, 1.2, 1.0, 0.2, seed) for seed in range(200))
    held = sum(cert.holds for _, cert in batch)
    print(f"  bound held on {held}/200 instances")


if __name__ == "__main__":
    main()
