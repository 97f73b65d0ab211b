"""Lap the oval with the heuristic bot and plot its control outputs.

Run:  python3 demos/02_baseline_bot.py
Writes bot_telemetry.csv and bot_controls.svg to the working directory.
"""

from racerl import tracks
from racerl.bot import BaselineBot, drive_bot
from racerl.plotting import plot_csv
from racerl.simulator import EnvSettings, RacingEnv, TelemetryLogger

track = tracks.get_track("oval")
env = RacingEnv(track, settings=EnvSettings(max_steps=1200))
bot = BaselineBot(track)
log = TelemetryLogger()

stats = drive_bot(env, bot, logger=log, stop_after_laps=3)
print(f"bot on {track.name}: laps {[round(l, 2) for l in stats['laps']]}, "
      f"damage {stats['damage']:.1f}")

log.write("bot_telemetry.csv")
plot_csv("bot_telemetry.csv", "bot_controls.svg")
print("wrote bot_telemetry.csv and bot_controls.svg")
