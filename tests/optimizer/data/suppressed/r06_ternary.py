def flips(n):
    total = 0
    for i in range(n):
        step = 1 if i else 2  # pepo: ignore[R06_TERNARY]
        total += step
    return total
