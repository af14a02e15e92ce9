"""The fixed persona slot schema.

A profile's persona is a sparse mapping over exactly these named slots. The
store validates against this default unless it is given another slot list.
"""

from __future__ import annotations

DEFAULT_PERSONA_SLOTS: tuple[str, ...] = (
    # basics
    "preferred_name",
    "age_range",
    "gender",
    "pronouns",
    "birthday",
    "hometown",
    "current_city",
    "nationality",
    "primary_language",
    "secondary_language",
    # household and family
    "marital_status",
    "partner_name",
    "children_count",
    "children_names",
    "parents",
    "siblings",
    "pets",
    "living_situation",
    "household_members",
    "family_hometown",
    # work and education
    "occupation",
    "employer",
    "job_title",
    "work_schedule",
    "career_goal",
    "education_level",
    "field_of_study",
    "alma_mater",
    "professional_skills",
    "side_projects",
    # health and lifestyle
    "dietary_preference",
    "food_allergies",
    "favorite_cuisine",
    "favorite_dish",
    "disliked_foods",
    "coffee_or_tea",
    "exercise_habit",
    "sleep_schedule",
    "health_conditions",
    "stress_relief",
    # sports and hobbies
    "favorite_sport",
    "sports_played",
    "favorite_team",
    "outdoor_activities",
    "indoor_hobbies",
    "collections",
    "crafts",
    "gardening",
    "photography_interest",
    "gaming_preference",
    # entertainment
    "favorite_music_genre",
    "favorite_artist",
    "favorite_movie_genre",
    "favorite_movie",
    "favorite_tv_show",
    "favorite_book_genre",
    "favorite_book",
    "favorite_podcast",
    "streaming_habits",
    "concert_interest",
    # social and communication
    "communication_style",
    "humor_style",
    "social_energy",
    "preferred_greeting",
    "conversation_topics",
    "topics_to_avoid",
    "close_friends",
    "social_groups",
    "volunteer_interests",
    "community_role",
    # travel
    "travel_frequency",
    "favorite_destination",
    "dream_destination",
    "travel_style",
    "transport_preference",
    "commute_mode",
    "places_lived",
    "upcoming_trips",
    # technology and preferences
    "device_preference",
    "operating_system",
    "favorite_apps",
    "social_media_use",
    "news_sources",
    "assistant_attitude",
    "privacy_preference",
    # values and outlook
    "core_values",
    "beliefs",
    "political_engagement",
    "financial_style",
    "life_goal",
)

assert len(DEFAULT_PERSONA_SLOTS) == 90
assert len(set(DEFAULT_PERSONA_SLOTS)) == 90

