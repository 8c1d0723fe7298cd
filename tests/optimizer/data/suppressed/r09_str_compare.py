def has_x(s):
    if s.find("x") != -1:  # pepo: ignore[R09_STR_COMPARE]
        return True
    return False
