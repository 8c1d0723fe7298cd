def hits(n):
    total = 0
    for i in range(n):
        total += i % 8  # pepo: ignore[R05_MODULUS]
    return total
