from hypothesis import settings

settings.register_profile("exact", deadline=None, derandomize=True, database=None)
settings.load_profile("exact")
